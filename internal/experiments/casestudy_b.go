package experiments

import (
	"fmt"

	"supersim/internal/config"
	"supersim/internal/sweep"
)

// Case study B — congestion credit accounting (Figure 10).
//
// A 1D flattened butterfly (HyperX, one dimension) with input-output-queued
// routers runs UGAL. The congestion sensor's credit accounting style is
// swept over the six combinations of {VC, port} granularity x {output,
// downstream, both} credit sources. With uniform random traffic (10a)
// port-based accounting wins; with bit complement traffic (10b) VC-based
// accounting wins.
//
// Time base: 1 tick = 0.5 ns (the router core runs at 2x frequency
// speedup, so the channel period is 2 ticks and the core period 1 tick).

// AccountingStyle is one credit accounting configuration.
type AccountingStyle struct {
	Granularity string // "vc" or "port"
	Source      string // "output", "downstream" or "both"
}

func (a AccountingStyle) String() string {
	return a.Granularity + "/" + a.Source
}

// AccountingStyles is the six-style sweep of case study B.
var AccountingStyles = []AccountingStyle{
	{"vc", "output"}, {"vc", "downstream"}, {"vc", "both"},
	{"port", "output"}, {"port", "downstream"}, {"port", "both"},
}

// fbConfig builds the case study B configuration: a 1D flattened butterfly
// with `routers` routers and `conc` terminals each (paper: 32 and 32 =>
// 1024 terminals, router radix 63).
func fbConfig(routers, conc int, style AccountingStyle, pattern string, load float64, seed uint64, sampleDur uint64) *config.Settings {
	cfg := config.New()
	set(cfg, map[string]any{
		"simulation.seed":       seed,
		"network.topology":      "hyperx",
		"network.widths":        []any{routers},
		"network.concentration": conc,
		// 50 ns channels at 1 flit/ns: period 2 ticks, latency 100 ticks.
		"network.channel.latency":                100,
		"network.channel.period":                 2,
		"network.injection.latency":              2,
		"network.interface.receive_buffer_depth": 256,
		"network.router.architecture":            "input_output_queued",
		"network.router.num_vcs":                 2,
		"network.router.speedup":                 2,
		"network.router.input_buffer_depth":      128,
		"network.router.output_queue_depth":      256,
		// 50 ns main crossbar latency.
		"network.router.crossbar_latency":              100,
		"network.router.congestion_sensor.type":        "credit",
		"network.router.congestion_sensor.granularity": style.Granularity,
		"network.router.congestion_sensor.source":      style.Source,
		"network.routing.algorithm":                    "ugal",
	})
	cfg.Set("workload.applications", []any{map[string]any{
		"type":            "blast",
		"injection_rate":  load,
		"message_size":    1,
		"warmup_duration": 4000,
		"sample_duration": sampleDur,
		"traffic":         map[string]any{"type": pattern},
	}})
	return cfg
}

// Figure10 regenerates Figure 10a (uniform random) or 10b (bit complement):
// one load-latency curve per credit accounting style.
func Figure10(opts Options, bitComplement bool) []Curve {
	routers, conc := 16, 16 // 256 terminals reduced scale
	loads := []float64{0.2, 0.4, 0.6, 0.8, 0.95}
	sample := uint64(4000)
	if opts.Full {
		routers, conc = 32, 32 // Table I: 1024 terminals, radix 63
		loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
		sample = 8000
	}
	pattern, fig := "uniform_random", "fig10a"
	if bitComplement {
		pattern, fig = "bit_complement", "fig10b"
	}
	opts.logf("Figure 10 (%s): %d-terminal 1D flattened butterfly, IOQ, UGAL\n",
		pattern, routers*conc)
	return figure10(opts, fig, routers, conc, pattern, loads, sample)
}

// figure10 is case study B's sweep at one scale: accounting style × load.
func figure10(opts Options, name string, routers, conc int, pattern string, loads []float64, sample uint64) []Curve {
	base := fbConfig(routers, conc, AccountingStyles[0], pattern, loads[0], opts.seed(), sample)
	style := variable("style", AccountingStyles, func(cfg *config.Settings, v AccountingStyle) {
		cfg.Set("network.router.congestion_sensor.granularity", v.Granularity)
		cfg.Set("network.router.congestion_sensor.source", v.Source)
	})
	return opts.curves(opts.sweep(name, base, style, loadVar(loads)),
		func(p sweep.Point) string { return fmt.Sprintf("%-16s", p.Values["style"]) })
}
