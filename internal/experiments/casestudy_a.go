package experiments

import (
	"fmt"

	"supersim/internal/config"
	"supersim/internal/sweep"
)

// Case study A — latent congestion detection (Figure 9 and the §VI-A text).
//
// A folded-Clos with idealistic output-queued routers runs adaptive
// uprouting under uniform random traffic forced through the root. The
// congestion-sensing propagation latency is swept from 1 to 32 ns. With
// infinite output queues (Figure 9a) latency rises but throughput is
// unaffected; with finite 64-flit output queues (Figure 9b) throughput
// collapses as sensing latency grows, because multiple input-port routing
// engines bombard the same seemingly-good output port before its congestion
// becomes visible.
//
// Time base: 1 tick = 1 ns.

// closConfig builds the case study A configuration.
//
//	halfRadix, levels — topology scale (paper: 16, 3 => 4096 terminals)
//	senseLatency      — congestion sensing latency in ns
//	outDepth          — output queue depth in flits, 0 = infinite
//	load              — offered load
func closConfig(halfRadix, levels int, senseLatency uint64, outDepth int, load float64, seed uint64, sampleDur uint64) *config.Settings {
	terms := pow(halfRadix, levels)
	cfg := config.New()
	set(cfg, map[string]any{
		"simulation.seed":    seed,
		"network.topology":   "folded_clos",
		"network.half_radix": halfRadix,
		"network.levels":     levels,
		// 50 ns channels (10 meter cables), 1 flit/ns links.
		"network.channel.latency":                50,
		"network.channel.period":                 1,
		"network.injection.latency":              1,
		"network.interface.receive_buffer_depth": 256,
		"network.router.architecture":            "output_queued",
		"network.router.num_vcs":                 1,
		"network.router.input_buffer_depth":      150,
		// 50 ns queue-to-queue router core latency.
		"network.router.queue_latency":                 50,
		"network.router.output_queue_depth":            outDepth,
		"network.router.congestion_sensor.type":        "credit",
		"network.router.congestion_sensor.granularity": "port",
		"network.router.congestion_sensor.source":      "output",
		"network.router.congestion_sensor.latency":     senseLatency,
		"network.routing.algorithm":                    "adaptive_uprouting",
	})
	apps := []any{map[string]any{
		"type":            "blast",
		"injection_rate":  load,
		"message_size":    1,
		"warmup_duration": 2000,
		"sample_duration": sampleDur,
		"traffic": map[string]any{
			"type":       "cross_subtree",
			"group_size": terms / halfRadix,
		},
	}}
	cfg.Set("workload.applications", apps)
	return cfg
}

// SenseLatencies is the swept congestion-sensing latency set (ns).
var SenseLatencies = []uint64{1, 2, 4, 8, 16, 32}

// Figure9 regenerates Figure 9a (infinite output queues) or 9b (64-flit
// output queues): one load-latency curve per congestion sensing latency.
func Figure9(opts Options, infiniteQueues bool) []Curve {
	halfRadix, levels := 8, 3 // 512 terminals (the paper's small variant scale)
	loads := []float64{0.3, 0.6, 0.9}
	sample := uint64(1500)
	if opts.Full {
		halfRadix = 16 // 4096 terminals as in Table I
		loads = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
		sample = 5000
	}
	outDepth, fig := 64, "fig9b"
	name := "64-flit output queues"
	if infiniteQueues {
		outDepth, fig = 0, "fig9a"
		name = "infinite output queues"
	}
	opts.logf("Figure 9 (%s): %d-terminal folded-Clos, OQ, adaptive uprouting\n",
		name, pow(halfRadix, levels))
	return figure9(opts, fig, halfRadix, levels, outDepth, SenseLatencies, loads, sample)
}

// Figure9Small regenerates the §VI-A text result: the 512-terminal radix-16
// system's achieved throughput at congestion sensing latencies 1, 2, 4 and
// 8 ns (paper: 90%, 90%, 75% and 40%). It offers 90% load and reports the
// accepted throughput per sensing latency.
func Figure9Small(opts Options) []Curve {
	opts.logf("Figure 9 small variant: 512-terminal radix-16 folded-Clos at 90%% offered load\n")
	return figure9(opts, "fig9small", 8, 3, 64, []uint64{1, 2, 4, 8}, []float64{0.9}, 3000)
}

// figure9 is case study A's sweep at one scale: sensing latency × load.
func figure9(opts Options, name string, halfRadix, levels, outDepth int, senseLatencies []uint64, loads []float64, sample uint64) []Curve {
	base := closConfig(halfRadix, levels, senseLatencies[0], outDepth, loads[0], opts.seed(), sample)
	sense := variable("SL", senseLatencies, func(cfg *config.Settings, v uint64) {
		cfg.Set("network.router.congestion_sensor.latency", v)
	})
	return opts.curves(opts.sweep(name, base, sense, loadVar(loads)),
		func(p sweep.Point) string { return fmt9Label(p.Values["SL"].(uint64)) })
}

func fmt9Label(sl uint64) string {
	return fmt.Sprintf("sense latency %2d ns", sl)
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
