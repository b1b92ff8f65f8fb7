// Package experiments regenerates every table and figure of the paper's
// evaluation (the three case studies of Section VI plus the tooling figures
// 5, 7 and 8). Each Figure* function runs the required simulation sweep and
// returns the numeric series the corresponding plot would draw; Print
// helpers render them as aligned tables.
//
// Scale: by default experiments run reduced-scale versions of the paper's
// configurations so the whole suite completes in minutes (the paper itself
// reports that the phenomena persist at 512 terminals in case study A).
// Setting Options.Full (or SUPERSIM_FULL=1 for the benchmarks) switches to
// the exact Table I parameters.
package experiments

import (
	"fmt"
	"io"

	"supersim/internal/config"
	"supersim/internal/core"
	"supersim/internal/sim"
	"supersim/internal/stats"
	"supersim/internal/taskrun"
	"supersim/internal/workload/apps"
)

// Options controls an experiment run.
type Options struct {
	Full bool      // paper-scale parameters instead of reduced
	Seed uint64    // base PRNG seed
	Out  io.Writer // progress/table output; nil silences

	// MonitorEvery, when positive, attaches a sim.ProgressMonitor to every
	// simulation the experiment runs, reporting events/sec and heap usage to
	// stderr every MonitorEvery executed events. The bench harness wires
	// SUPERSIM_MONITOR to this.
	MonitorEvery uint64

	// Workers, when positive, sets simulation.workers on every simulation
	// the experiment runs: 1 pins the explicit serial path, > 1 runs that
	// many parallel shards with results identical to the serial run (`make
	// bench-parallel`).
	Workers uint64

	// TaskProbe, when non-nil, receives a lifecycle event pair per sweep
	// point: every sweepLoads simulation is reported as a queued → ready →
	// started → finished task named "<label> load=<l>", so a taskrun.Journal
	// (or the sweep monitor) can observe figure regeneration the same way it
	// observes sssweep fleets. Experiment sweeps run serially, so events
	// arrive in run order.
	TaskProbe taskrun.Probe
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// prep applies option-driven simulation settings to an experiment config.
func (o Options) prep(cfg *config.Settings) *config.Settings {
	if o.MonitorEvery > 0 {
		cfg.Set("simulation.monitor_interval", o.MonitorEvery)
	}
	if o.Workers > 0 {
		cfg.Set("simulation.workers", o.Workers)
	}
	return cfg
}

func (o Options) logf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

// LoadPoint is one point of a load-versus-latency curve.
type LoadPoint struct {
	Offered    float64 // injected load, fraction of terminal bandwidth
	Accepted   float64 // delivered load over the sampling window
	Mean       float64 // latency statistics in ticks
	P50        float64
	P90        float64
	P99        float64
	P999       float64
	P9999      float64
	NonMinimal float64 // fraction of sampled messages routed non-minimally
	Samples    int
	Saturated  bool
}

// Curve is a labeled series of load points.
type Curve struct {
	Label  string
	Points []LoadPoint
}

// SaturationThroughput returns the highest accepted load observed on the
// curve — the conventional scalar throughput readout.
func (c Curve) SaturationThroughput() float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.Accepted > best {
			best = p.Accepted
		}
	}
	return best
}

// runResult captures one simulation's sampled outcome.
type runResult struct {
	rec      *stats.Recorder
	window   sim.Tick
	periods  sim.Tick
	terms    int
	accepted float64
	skipped  uint64
}

// runBlast builds and runs a single-Blast simulation from a fully formed
// settings document and extracts the sampled statistics.
func runBlast(cfg *config.Settings) runResult {
	sm := core.Build(cfg)
	if _, err := sm.Run(); err != nil {
		panic(err)
	}
	blast := sm.Workload.App(0).(*apps.Blast)
	start, stop := blast.SampleWindow()
	window := stop - start
	rec := blast.Stats()
	return runResult{
		rec:     rec,
		window:  window,
		terms:   sm.Net.NumTerminals(),
		skipped: blast.Skipped(),
		accepted: stats.Throughput(rec.Flits(), sm.Net.NumTerminals(), window,
			sm.Net.ChannelPeriod()),
	}
}

func (r runResult) point(offered float64) LoadPoint {
	s := r.rec.Summarize()
	sat := r.skipped > 0 || r.accepted < offered*0.95
	return LoadPoint{
		Offered:    offered,
		Accepted:   r.accepted,
		Mean:       s.Mean,
		P50:        s.P50,
		P90:        s.P90,
		P99:        s.P99,
		P999:       s.P999,
		P9999:      s.P9999,
		NonMinimal: s.NonMinimal,
		Samples:    s.Count,
		Saturated:  sat,
	}
}

// sweepLoads runs mkCfg at each offered load, stopping the curve after the
// first saturated point (a saturated network yields unbounded latency, so
// the plot lines stop there).
func sweepLoads(label string, loads []float64, opts Options, mkCfg func(load float64) *config.Settings) Curve {
	c := Curve{Label: label}
	for _, load := range loads {
		task := fmt.Sprintf("%s load=%.2f", label, load)
		if opts.TaskProbe != nil {
			opts.TaskProbe.TaskQueued(task, nil)
			opts.TaskProbe.TaskReady(task)
			opts.TaskProbe.TaskStarted(task)
		}
		res := runBlast(opts.prep(mkCfg(load)))
		if opts.TaskProbe != nil {
			opts.TaskProbe.TaskFinished(task, taskrun.Succeeded, nil)
		}
		p := res.point(load)
		c.Points = append(c.Points, p)
		opts.logf("  %-32s load=%.2f accepted=%.3f mean=%.0f p99=%.0f%s\n",
			label, load, p.Accepted, p.Mean, p.P99, satMark(p))
		if p.Saturated {
			break
		}
	}
	return c
}

func satMark(p LoadPoint) string {
	if p.Saturated {
		return "  [saturated]"
	}
	return ""
}

// PrintCurves renders curves as an aligned latency table.
func PrintCurves(w io.Writer, title string, curves []Curve) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "%-34s %7s %9s %9s %9s %9s %9s %9s\n",
		"series", "load", "accepted", "mean", "p50", "p99", "p99.9", "nonmin")
	for _, c := range curves {
		for _, p := range c.Points {
			fmt.Fprintf(w, "%-34s %7.2f %9.3f %9.1f %9.0f %9.0f %9.0f %9.4f%s\n",
				c.Label, p.Offered, p.Accepted, p.Mean, p.P50, p.P99, p.P999,
				p.NonMinimal, satMark(p))
		}
	}
}

// PrintThroughputs renders the saturation throughput of each curve.
func PrintThroughputs(w io.Writer, title string, curves []Curve) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, c := range curves {
		fmt.Fprintf(w, "%-40s throughput=%.3f\n", c.Label, c.SaturationThroughput())
	}
}

// mustSet applies dotted-path settings to a document.
func set(cfg *config.Settings, kv map[string]any) *config.Settings {
	for k, v := range kv {
		cfg.Set(k, v)
	}
	return cfg
}
