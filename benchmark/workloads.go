package main

import (
	"math"

	"supersim/internal/config"
	"supersim/internal/sim"
)

// A workload is one simulator input plus the way it is driven. The three
// base workloads differ in router architecture and in which layer carries
// the cost; the three fb_ioq.* workloads run fb_ioq's exact input through a
// different engine path, so their fingerprints must equal fb_ioq's.
type workload struct {
	name string
	base string // the workload whose fingerprint this one must reproduce
	ckpt bool   // RunCheckpointed, Restore and Run again, instead of Run

	// procs is the child's GOMAXPROCS: 1 for serial workloads, so that the
	// concurrent GC cannot borrow the neighbouring core on a shared 2-vCPU
	// box (that alone widened fb_ioq's spread from 19% to 30% of its
	// median); 2 only where the second core is the point.
	procs int

	// horizon is the tick at which generation stops (warmup + sample).
	config func(seed uint64, scale float64) (cfg *config.Settings, horizon uint64)
}

// A traced run advances in slices of a hundredth of the horizon, reading
// the queue depth between them; a checkpointed run snapshots every tenth
// slice boundary, so ten times before the horizon, and restores the sixth.
const (
	traceSlices = 100
	ckptSlices  = 10
	ckptKeep    = 6
)

func (o *op) slice() sim.Tick { return sim.Tick(max(1, o.horizon/traceSlices)) }

// Why each workload is here is in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "fb_ioq", base: "fb_ioq", procs: 1, config: fbIOQ},
	{name: "torus_iq", base: "torus_iq", procs: 1, config: torusIQ},
	{name: "clos_oq", base: "clos_oq", procs: 1, config: closOQ},
	{name: "fb_ioq.w2", base: "fb_ioq", procs: 2, config: with(fbIOQ, map[string]any{
		"simulation.workers": 2,
	})},
	{name: "fb_ioq.ckpt", base: "fb_ioq", procs: 1, ckpt: true, config: fbIOQ},
	{name: "fb_ioq.probes", base: "fb_ioq", procs: 1, config: with(fbIOQ, map[string]any{
		"simulation.telemetry.enabled":      true,
		"simulation.telemetry.spans_sample": 1.0, // fold-only: no output files
	})},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// with returns base's input with some settings changed.
func with(base func(uint64, float64) (*config.Settings, uint64), kv map[string]any) func(uint64, float64) (*config.Settings, uint64) {
	return func(seed uint64, scale float64) (*config.Settings, uint64) {
		cfg, horizon := base(seed, scale)
		for k, v := range kv {
			cfg.Set(k, v)
		}
		return cfg, horizon
	}
}

// scaled shrinks a duration for smoke runs.
func scaled(ticks uint64, scale float64) uint64 {
	return max(1, uint64(math.Round(float64(ticks)*scale)))
}

func settings(seed uint64, kv map[string]any) *config.Settings {
	cfg := config.New()
	cfg.Set("simulation.seed", seed)
	for k, v := range kv {
		cfg.Set(k, v)
	}
	return cfg
}

func blast(load float64, msg int, warmup, sample uint64, traffic map[string]any) map[string]any {
	return map[string]any{
		"type":            "blast",
		"injection_rate":  load,
		"message_size":    msg,
		"warmup_duration": warmup,
		"sample_duration": sample,
		"traffic":         traffic,
	}
}

// fbIOQ is Figure 5: a 1D flattened butterfly (HyperX [8], concentration 8)
// of IOQ routers with 2 VCs under UGAL, a 0.35-load Blast of 1-flit
// messages and a Pulse burst a quarter into sampling. 1 tick = 0.5 ns.
func fbIOQ(seed uint64, scale float64) (*config.Settings, uint64) {
	const warmup = 4000
	sample := scaled(fbSample, scale)
	cfg := settings(seed, map[string]any{
		"network.topology":                             "hyperx",
		"network.widths":                               []any{8},
		"network.concentration":                        8,
		"network.channel.latency":                      100,
		"network.channel.period":                       2,
		"network.injection.latency":                    2,
		"network.interface.receive_buffer_depth":       256,
		"network.router.architecture":                  "input_output_queued",
		"network.router.num_vcs":                       2,
		"network.router.speedup":                       2,
		"network.router.input_buffer_depth":            128,
		"network.router.output_queue_depth":            256,
		"network.router.crossbar_latency":              100,
		"network.router.congestion_sensor.type":        "credit",
		"network.router.congestion_sensor.granularity": "port",
		"network.router.congestion_sensor.source":      "both",
		"network.routing.algorithm":                    "ugal",
	})
	uniform := map[string]any{"type": "uniform_random"}
	cfg.Set("workload.applications", []any{
		blast(0.35, 1, warmup, sample, uniform),
		map[string]any{
			"type":           "pulse",
			"injection_rate": 0.9,
			"message_size":   1,
			"count":          sample * 3 / 1000,
			"delay":          sample / 4,
			"traffic":        uniform,
		},
	})
	return cfg, warmup + sample
}

// torusIQ is case study C: a 4x4x4x4 torus of IQ routers with flit-buffer
// flow control under dimension-order routing, 5-tick channels, 8-flit
// messages at half load.
func torusIQ(seed uint64, scale float64) (*config.Settings, uint64) {
	warmup, sample := scaled(torusWarmup, scale), scaled(torusSample, scale)
	cfg := settings(seed, map[string]any{
		"network.topology":                       "torus",
		"network.dimensions":                     []any{4, 4, 4, 4},
		"network.concentration":                  1,
		"network.channel.latency":                5,
		"network.channel.period":                 1,
		"network.injection.latency":              1,
		"network.interface.receive_buffer_depth": 256,
		"network.router.architecture":            "input_queued",
		"network.router.num_vcs":                 2,
		"network.router.input_buffer_depth":      128,
		"network.router.crossbar_latency":        25,
		"network.router.flow_control":            "flit_buffer",
		"network.routing.algorithm":              "dimension_order",
	})
	cfg.Set("workload.applications", []any{
		blast(0.5, 8, warmup, sample, map[string]any{"type": "uniform_random"}),
	})
	return cfg, warmup + sample
}

// closOQ is case study A: a 3-level folded Clos of half-radix 8 (512
// terminals) of OQ routers with 64-flit output queues, adaptive up-routing
// on a 4 ns credit sensor, and traffic forced across subtrees.
func closOQ(seed uint64, scale float64) (*config.Settings, uint64) {
	warmup, sample := scaled(closWarmup, scale), scaled(closSample, scale)
	cfg := settings(seed, map[string]any{
		"network.topology":                             "folded_clos",
		"network.half_radix":                           8,
		"network.levels":                               3,
		"network.channel.latency":                      50,
		"network.channel.period":                       1,
		"network.injection.latency":                    1,
		"network.interface.receive_buffer_depth":       256,
		"network.router.architecture":                  "output_queued",
		"network.router.num_vcs":                       1,
		"network.router.input_buffer_depth":            150,
		"network.router.queue_latency":                 50,
		"network.router.output_queue_depth":            64,
		"network.router.congestion_sensor.type":        "credit",
		"network.router.congestion_sensor.granularity": "port",
		"network.router.congestion_sensor.source":      "output",
		"network.router.congestion_sensor.latency":     4,
		"network.routing.algorithm":                    "adaptive_uprouting",
	})
	cfg.Set("workload.applications", []any{
		blast(0.7, 1, warmup, sample, map[string]any{"type": "cross_subtree", "group_size": 64}),
	})
	return cfg, warmup + sample
}

// Frozen sizes. Each is chosen so one simulation takes 1.5-3 s on the
// reference container: the driver gives a workload run_seconds per run, and
// a run needs five or more simulations for its median to be steady.
const (
	fbSample    = 30000
	torusWarmup = 400
	torusSample = 1000
	closWarmup  = 50
	closSample  = 100
)
