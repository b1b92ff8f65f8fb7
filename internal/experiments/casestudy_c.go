package experiments

import (
	"fmt"
	"io"

	"supersim/internal/config"
	"supersim/internal/stats"
	"supersim/internal/sweep"
)

// Case study C — flow control techniques (Figures 11 and 12).
//
// A 4D torus with input-queued routers under dimension order routing
// compares flit-buffer (FB), packet-buffer (PB) and winner-take-all (WTA)
// crossbar scheduling across message sizes and VC counts. At large scale
// with high channel latencies, packets rarely span multiple routers and the
// flow control technique barely matters for throughput (Figure 11); with
// large 32-flit messages and 8 VCs the latency ordering is FB best, WTA
// middle, PB worst (Figure 12).
//
// Time base: 1 tick = 1 ns.

// FlowControls is the swept technique set.
var FlowControls = []string{"flit_buffer", "packet_buffer", "winner_take_all"}

// torusConfig builds the case study C configuration: a 4D torus of
// width^4 routers, one terminal each (paper: 8x8x8x8 = 4096).
func torusConfig(width, vcs, msgSize int, fc string, load float64, seed uint64, sampleDur uint64) *config.Settings {
	cfg := config.New()
	set(cfg, map[string]any{
		"simulation.seed":       seed,
		"network.topology":      "torus",
		"network.dimensions":    []any{width, width, width, width},
		"network.concentration": 1,
		// 5 ns channels (1 meter cables) at 1 flit/ns.
		"network.channel.latency":                5,
		"network.channel.period":                 1,
		"network.injection.latency":              1,
		"network.interface.receive_buffer_depth": 256,
		"network.router.architecture":            "input_queued",
		"network.router.num_vcs":                 vcs,
		"network.router.input_buffer_depth":      128,
		// 25 ns main crossbar latency.
		"network.router.crossbar_latency": 25,
		"network.router.flow_control":     fc,
		"network.routing.algorithm":       "dimension_order",
	})
	cfg.Set("workload.applications", []any{map[string]any{
		"type":            "blast",
		"injection_rate":  load,
		"message_size":    msgSize,
		"warmup_duration": 2000,
		"sample_duration": sampleDur,
		"traffic":         map[string]any{"type": "uniform_random"},
	}})
	return cfg
}

// Fig11Point is one (flow control, VCs, message size) throughput readout.
type Fig11Point struct {
	FlowControl string
	VCs         int
	MsgSize     int
	Throughput  float64 // accepted load at saturation offered load
}

// Figure11 regenerates Figure 11: saturation throughput of the three flow
// control techniques across message sizes, at each VC count. The network is
// offered full load and the accepted throughput is measured.
func Figure11(opts Options) []Fig11Point {
	width := 4 // 256 terminals reduced scale
	vcsSet := []int{2, 4, 8}
	msgs := []int{1, 8, 32}
	sample := uint64(1500)
	if opts.Full {
		width = 8 // Table I: 4096 terminals
		msgs = []int{1, 2, 4, 8, 16, 32}
		sample = 5000
	}
	opts.logf("Figure 11: %d-node 4D torus, IQ, DOR, offered load 1.0\n", width*width*width*width)
	s := figure11(opts, width, vcsSet, msgs, sample)
	s.OnPoint = func(p sweep.Point, _ *stats.Recorder) {
		opts.logf("  vcs=%d msg=%2d %-16s throughput=%.3f\n",
			p.Values["vcs"], p.Values["msg"], p.Values["fc"], p.Accepted)
	}
	var out []Fig11Point
	for _, p := range run(s) {
		out = append(out, Fig11Point{FlowControl: p.Values["fc"].(string), VCs: p.Values["vcs"].(int),
			MsgSize: p.Values["msg"].(int), Throughput: p.Accepted})
	}
	return out
}

// figure11 is Figure 11's sweep at one scale: VCs × message size × flow
// control, at full offered load.
func figure11(opts Options, width int, vcsSet, msgs []int, sample uint64) *sweep.Sweep {
	return opts.sweep("fig11", torusConfig(width, vcsSet[0], msgs[0], FlowControls[0], 1.0, opts.seed(), sample),
		variable("vcs", vcsSet, func(cfg *config.Settings, v int) { cfg.Set("network.router.num_vcs", v) }),
		variable("msg", msgs, func(cfg *config.Settings, v int) { setApp(cfg, "message_size", v) }),
		flowControlVar)
}

// flowControlVar sweeps the crossbar scheduling technique.
var flowControlVar = variable("fc", FlowControls, func(cfg *config.Settings, v string) {
	cfg.Set("network.router.flow_control", v)
})

// PrintFigure11 renders the Figure 11 matrix: one block per VC count, one
// row per message size, one column per flow control technique. It reads
// the points in Figure11's order: VC count, then message size, then flow
// control in FlowControls order.
func PrintFigure11(w io.Writer, points []Fig11Point) {
	for i, p := range points {
		if i == 0 || p.VCs != points[i-1].VCs {
			fmt.Fprintf(w, "== Figure 11: %d VCs ==\n", p.VCs)
			fmt.Fprintf(w, "%8s %12s %12s %12s\n", "msgsize", "FB", "PB", "WTA")
		}
		if p.FlowControl == FlowControls[0] {
			fmt.Fprintf(w, "%8d", p.MsgSize)
		}
		fmt.Fprintf(w, " %12.3f", p.Throughput)
		if p.FlowControl == FlowControls[len(FlowControls)-1] {
			fmt.Fprintln(w)
		}
	}
}

// Figure12 regenerates Figure 12: load-latency of the three flow control
// techniques with 8 VCs and 32-flit messages.
func Figure12(opts Options) []Curve {
	width := 4
	loads := []float64{0.2, 0.5, 0.8}
	sample := uint64(1500)
	if opts.Full {
		width = 8
		loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
		sample = 5000
	}
	opts.logf("Figure 12: 4D torus, IQ, 8 VCs, 32-flit messages\n")
	return figure12(opts, width, loads, sample)
}

// figure12 is Figure 12's sweep at one scale: flow control × load.
func figure12(opts Options, width int, loads []float64, sample uint64) []Curve {
	base := torusConfig(width, 8, 32, FlowControls[0], loads[0], opts.seed(), sample)
	return opts.curves(opts.sweep("fig12", base, flowControlVar, loadVar(loads)),
		func(p sweep.Point) string { return p.Values["fc"].(string) })
}
