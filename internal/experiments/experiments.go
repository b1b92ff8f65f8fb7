// Package experiments regenerates every table and figure of the paper's
// evaluation (the three case studies of Section VI plus the tooling figures
// 5, 7 and 8). Each Figure* function but Figure5 runs an internal/sweep
// sweep, its points GOMAXPROCS at a time, and returns the numeric series the
// corresponding plot would draw; Print helpers render them as aligned
// tables. The claim tests run their points through the same sweeps.
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
	"runtime"

	"supersim/internal/config"
	"supersim/internal/stats"
	"supersim/internal/sweep"
	"supersim/internal/taskrun"
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

	// TaskProbe, when non-nil, observes the runner of every figure sweep:
	// each sweep point is a task named after its figure and its values
	// ("fig9a_SL=1_load=0.3"), and a load the stopping rule leaves out
	// finishes as a skipped task. A taskrun.Journal here is the -journal of
	// cmd/experiments.
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
	return cfg
}

func (o Options) logf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

// LoadPoint is one point of a load-versus-latency curve.
type LoadPoint struct {
	Offered       float64 // injected load, fraction of terminal bandwidth
	Accepted      float64 // delivered load over the sampling window
	stats.Summary         // latency statistics in ticks
	Saturated     bool
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

// sweep returns the sweep behind one figure: base under vars, one
// simulation per permutation, GOMAXPROCS of them at a time. Every simulation
// has its own config and seed, so a point's outcome does not depend on the
// worker count.
func (o Options) sweep(name string, base *config.Settings, vars ...sweep.Variable) *sweep.Sweep {
	s := sweep.New(o.prep(base), runtime.GOMAXPROCS(0))
	s.Name, s.Probe = name, o.TaskProbe
	for _, v := range vars {
		s.AddVariable(v)
	}
	return s
}

// run runs a figure sweep and returns its points in declaration order. The
// figures' configs are fixed, so a failed point is a bug.
func run(s *sweep.Sweep) []sweep.Point {
	points, err := s.Run()
	if err != nil {
		panic(err)
	}
	return points
}

// variable declares a sweep variable whose values are applied by apply.
func variable[T any](name string, values []T, apply func(cfg *config.Settings, v T)) sweep.Variable {
	vals := make([]any, len(values))
	for i, v := range values {
		vals[i] = v
	}
	return sweep.Variable{Name: name, Short: name, Values: vals,
		Apply: func(cfg *config.Settings, v any) { apply(cfg, v.(T)) }}
}

// setApp sets a key of application 0, the Blast every figure measures.
func setApp(cfg *config.Settings, key string, v any) {
	config.FromMap(cfg.Array("workload.applications")[0].(map[string]any)).Set(key, v)
}

// loadVar is the offered-load axis of a curve.
func loadVar(loads []float64) sweep.Variable {
	return variable("load", loads, func(cfg *config.Settings, v float64) { setApp(cfg, "injection_rate", v) })
}

// loadPoint reads a curve point off a sweep point. A point is saturated when
// the source queues overflowed or it delivered under 95% of its offered load.
func loadPoint(p sweep.Point) LoadPoint {
	offered := p.Values["load"].(float64)
	return LoadPoint{Offered: offered, Accepted: p.Accepted, Summary: p.Summary,
		Saturated: p.Skipped > 0 || p.Accepted < offered*0.95}
}

// curves runs s, a sweep whose last variable is the offered load, as one
// curve per combination of its other variables, labeled by label. Each load
// runs after the one below it, and only if that one did not saturate: a
// saturated network yields unbounded latency, so the plot lines stop there.
// A curve's progress lines therefore come out in load order.
func (o Options) curves(s *sweep.Sweep, label func(sweep.Point) string) []Curve {
	s.StopAfter = func(p sweep.Point) bool { return loadPoint(p).Saturated }
	s.OnPoint = func(p sweep.Point, _ *stats.Recorder) {
		lp := loadPoint(p)
		o.logf("  %-32s load=%.2f accepted=%.3f mean=%.0f p99=%.0f%s\n",
			label(p), lp.Offered, lp.Accepted, lp.Mean, lp.P99, satMark(lp))
	}
	var out []Curve
	for _, p := range run(s) {
		if l := label(p); len(out) == 0 || out[len(out)-1].Label != l {
			out = append(out, Curve{Label: l})
		}
		c := &out[len(out)-1]
		c.Points = append(c.Points, loadPoint(p))
	}
	return out
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
