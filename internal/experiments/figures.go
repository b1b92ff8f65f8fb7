package experiments

import (
	"fmt"
	"io"

	"supersim/internal/config"
	"supersim/internal/core"
	"supersim/internal/network"
	"supersim/internal/sim"
	"supersim/internal/workload/apps"
)

// Figure5 regenerates the Blast/Pulse transient: Blast supplies steady
// uniform random background traffic while Pulse injects a burst shortly
// after sampling starts; the returned series is Blast's mean latency in time
// bins, which rises when the pulse disturbs the network and recovers after
// it drains. PulseWindow brackets the disturbance.
type Figure5Result struct {
	Series      [][2]float64 // (bin center tick, mean latency)
	PulseStart  sim.Tick
	PulseEnd    sim.Tick
	BlastMean   float64
	PulsePeak   float64 // highest binned latency
	BinWidth    sim.Tick
	SampleCount int
}

// Figure5 runs the transient experiment.
func Figure5(opts Options) Figure5Result {
	routers, conc := 8, 8
	sample, count := uint64(20000), 60
	if opts.Full {
		routers, conc = 16, 16
		sample, count = 40000, 150
	}
	cfg := fbConfig(routers, conc, AccountingStyle{"port", "both"}, "uniform_random",
		0.35, opts.seed(), sample)
	// Add the Pulse application: a hot burst beginning 1/4 into sampling.
	appsArr := cfg.Array("workload.applications")
	appsArr = append(appsArr, map[string]any{
		"type":           "pulse",
		"injection_rate": 0.9,
		"message_size":   1,
		"count":          count,
		"delay":          sample / 4,
		"traffic":        map[string]any{"type": "uniform_random"},
	})
	cfg.Set("workload.applications", appsArr)

	sm := core.Build(opts.prep(cfg))
	if _, err := sm.Run(); err != nil {
		panic(err)
	}
	blast := sm.Workload.App(0).(*apps.Blast)
	pulse := sm.Workload.App(1).(*apps.Pulse)
	bin := sim.Tick(sample / 40)
	series := blast.Stats().TimeSeries(bin)
	res := Figure5Result{
		Series:      series,
		BlastMean:   blast.Stats().Mean(),
		BinWidth:    bin,
		SampleCount: blast.Stats().Count(),
	}
	// The pulse window is bracketed by its own samples.
	first, last := sim.Tick(0), sim.Tick(0)
	for i, rec := 0, pulse.Stats(); i < rec.Count(); i++ {
		s := rec.At(i)
		if i == 0 || s.Start < first {
			first = s.Start
		}
		if s.End > last {
			last = s.End
		}
	}
	res.PulseStart, res.PulseEnd = first, last
	for _, p := range series {
		if p[1] > res.PulsePeak {
			res.PulsePeak = p[1]
		}
	}
	opts.logf("Figure 5: blast mean=%.1f peak bin=%.1f pulse=[%d,%d]\n",
		res.BlastMean, res.PulsePeak, res.PulseStart, res.PulseEnd)
	return res
}

// PrintFigure5 renders the transient series.
func PrintFigure5(w io.Writer, r Figure5Result) {
	fmt.Fprintf(w, "== Figure 5: Blast mean latency disturbed by Pulse (pulse window [%d, %d]) ==\n",
		r.PulseStart, r.PulseEnd)
	fmt.Fprintf(w, "%12s %12s\n", "time", "mean_latency")
	for _, p := range r.Series {
		marker := ""
		if sim.Tick(p[0]) >= r.PulseStart && sim.Tick(p[0]) <= r.PulseEnd {
			marker = "  <- pulse active"
		}
		fmt.Fprintf(w, "%12.0f %12.1f%s\n", p[0], p[1], marker)
	}
}

// PercentilePoints is the percentile axis used for percentile distribution
// plots (Figure 7's x axis, log-style tail).
var PercentilePoints = []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90,
	95, 99, 99.9, 99.99, 100}

// Figure7 regenerates the percentile distribution plot: a single simulation
// at moderate load; the returned points are (percentile, latency), from
// which read-offs like "the 99.9th percentile latency" come.
func Figure7(opts Options) [][2]float64 {
	routers, conc := 8, 8
	sample := uint64(8000)
	if opts.Full {
		routers, conc = 32, 32
		sample = 12000
	}
	res := runBlast(opts.prep(fbConfig(routers, conc, AccountingStyle{"port", "both"},
		"uniform_random", 0.5, opts.seed(), sample)))
	curve := res.rec.PercentileCurve(PercentilePoints)
	opts.logf("Figure 7: %d samples, p50=%.0f p99.9=%.0f\n",
		res.rec.Count(), res.rec.Percentile(50), res.rec.Percentile(99.9))
	return curve
}

// PrintFigure7 renders the percentile distribution.
func PrintFigure7(w io.Writer, curve [][2]float64) {
	fmt.Fprintln(w, "== Figure 7: percentile distribution ==")
	fmt.Fprintf(w, "%12s %12s\n", "percentile", "latency")
	for _, p := range curve {
		fmt.Fprintf(w, "%12.2f %12.0f\n", p[0], p[1])
	}
}

// Figure8 regenerates the load-versus-latency-distribution plot with
// phantom congestion: UGAL adaptive routing where a non-minimal decision
// costs an extra 50 ns channel and 50 ns router traversal. At low load a
// significant fraction of traffic goes non-minimal (visible in the upper
// percentiles); the effect eases as load rises and the curve stops at
// saturation.
func Figure8(opts Options) Curve {
	routers, conc := 16, 16
	loads := []float64{0.02, 0.06, 0.12, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 0.98}
	sample := uint64(4000)
	if opts.Full {
		routers, conc = 32, 32
		sample = 8000
	}
	opts.logf("Figure 8: load sweep with phantom congestion (UGAL, %d terminals)\n", routers*conc)
	return sweepLoads("ugal/port/both", loads, opts, func(load float64) *config.Settings {
		return fbConfig(routers, conc, AccountingStyle{"port", "both"},
			"uniform_random", load, opts.seed(), sample)
	})
}

// TableIRow is one column of the paper's Table I parameter matrix.
type TableIRow struct {
	Study     string
	Params    map[string]string
	Buildable bool
}

// TableI reproduces the simulation parameter matrix of the three case
// studies and verifies that each configuration actually constructs (at
// reduced scale by default; paper scale with Full).
func TableI(opts Options) []TableIRow {
	build := func(cfg *config.Settings) bool {
		s := sim.NewSimulator(1)
		network.New(s, cfg.Sub("network"))
		return true
	}
	scaleClos, scaleFB, scaleTorus := 8, 16, 4
	fbConc := 16
	if opts.Full {
		scaleClos, scaleFB, scaleTorus = 16, 32, 8
		fbConc = 32
	}
	rows := []TableIRow{
		{
			Study: "Latent Congestion Detection",
			Params: map[string]string{
				"Network topology":    fmt.Sprintf("3-level folded-Clos, %d terminals", pow(scaleClos, 3)),
				"Channel latency":     "50 ns",
				"Routing algorithm":   "adaptive uprouting",
				"Router architecture": "output-queued (OQ)",
				"Number of VCs":       "1",
				"Input buffer":        "150 flits",
				"Output buffer":       "infinite and 64 flits",
				"Router core latency": "50 ns queue-to-queue",
				"Message size":        "1 flit",
				"Traffic pattern":     "uniform random to root",
			},
			Buildable: build(closConfig(scaleClos, 3, 8, 64, 0.5, 1, 100)),
		},
		{
			Study: "Congestion Credit Accounting",
			Params: map[string]string{
				"Network topology":    fmt.Sprintf("1D flattened butterfly, %d routers, %d terminals", scaleFB, scaleFB*fbConc),
				"Channel latency":     "50 ns",
				"Routing algorithm":   "UGAL",
				"Router architecture": "input-output-queued (IOQ)",
				"Frequency speedup":   "2x",
				"Number of VCs":       "2",
				"Input buffer":        "128 flits",
				"Output buffer":       "256 flits",
				"Router core latency": "50 ns main crossbar",
				"Message size":        "1 flit",
				"Traffic pattern":     "uniform random, bit complement",
			},
			Buildable: build(fbConfig(scaleFB, fbConc, AccountingStyle{"vc", "both"}, "uniform_random", 0.5, 1, 100)),
		},
		{
			Study: "Flow Control Techniques",
			Params: map[string]string{
				"Network topology":    fmt.Sprintf("4D torus %dx%dx%dx%d, %d terminals", scaleTorus, scaleTorus, scaleTorus, scaleTorus, pow(scaleTorus, 4)),
				"Channel latency":     "5 ns",
				"Routing algorithm":   "dimension order routing",
				"Router architecture": "input-queued (IQ)",
				"Number of VCs":       "2,4,8",
				"Input buffer":        "128 flits",
				"Router core latency": "25 ns main crossbar",
				"Message size":        "1,2,4,8,16,32 flits",
				"Traffic pattern":     "uniform random",
			},
			Buildable: build(torusConfig(scaleTorus, 4, 1, "flit_buffer", 0.5, 1, 100)),
		},
	}
	return rows
}

// PrintTableI renders the parameter matrix.
func PrintTableI(w io.Writer, rows []TableIRow) {
	fmt.Fprintln(w, "== Table I: parameters for the three simulation case studies ==")
	for _, r := range rows {
		fmt.Fprintf(w, "--- %s (buildable=%v) ---\n", r.Study, r.Buildable)
		for _, k := range []string{"Network topology", "Channel latency", "Routing algorithm",
			"Router architecture", "Frequency speedup", "Number of VCs", "Input buffer",
			"Output buffer", "Router core latency", "Message size", "Traffic pattern"} {
			if v, ok := r.Params[k]; ok {
				fmt.Fprintf(w, "  %-22s %s\n", k, v)
			}
		}
	}
}
