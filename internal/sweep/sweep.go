// Package sweep generates and executes simulation sweeps: the cross product
// of one or more sweep variables, each contributing a settings override, is
// expanded into one simulation per permutation, executed through taskrun,
// and collected into labeled result points — the in-process counterpart of
// the original SSSweep tool. A few lines of variable declarations turn into
// an exhaustive, autonomous simulation and analysis campaign.
package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"supersim/internal/config"
	"supersim/internal/core"
	"supersim/internal/manifest"
	"supersim/internal/stats"
	"supersim/internal/taskrun"
	"supersim/internal/workload"
)

// Variable is one swept dimension. Apply mutates a copy of the base settings
// for the given value — typically one cfg.Set call, exactly like the
// command line override a shell-based sweep would generate.
type Variable struct {
	Name   string // long name, used in result points
	Short  string // short name, used in permutation ids
	Values []any
	Apply  func(cfg *config.Settings, value any)
}

// Point is one permutation's outcome.
type Point struct {
	ID       string         // e.g. "CL=1_VC=4"
	Values   map[string]any // variable name -> value
	Summary  stats.Summary  // app 0 latency summary
	Accepted float64        // delivered load over the sampling window
	Skipped  uint64         // injections app 0 dropped at a full source queue (Blast)
	Err      error          // non-nil if the simulation failed
}

// Sweep is a configured sweep campaign. Set its exported fields before Run.
type Sweep struct {
	// Name, when set, is the first part of every permutation id and so of
	// every task name: several sweeps can then share one task journal.
	Name string
	// Probe observes the sweep's runner: a Journal for the persistent event
	// log, a Monitor for the live dashboard, or both via taskrun.Probes.
	Probe taskrun.Probe
	// ManifestDir, when set, is created on demand and receives one provenance
	// manifest per successful permutation, <id>.manifest.json. Sweep manifests carry no wall-clock
	// fields, so a deterministic simulation gives byte-identical manifests.
	ManifestDir string
	// StopAfter, when set, makes the last variable a chain: each of its
	// values after the first runs after the permutation with the value
	// before it, and only if that one ran and StopAfter is false for its
	// point. A load sweep stops each curve after its first saturated point
	// this way. A permutation a chain skips is missing from Run's points and
	// finishes as a skipped task.
	StopAfter func(Point) bool
	// OnPoint, when set, is called once per permutation whose simulation
	// completed, right after it, with the point and application 0's
	// recorder. Calls never overlap (they hold the sweep's lock, so OnPoint
	// must not call back into the sweep). It reads more than a Point
	// summarizes without the sweep keeping every recorder until Run returns.
	OnPoint func(Point, *stats.Recorder)

	base *config.Settings
	vars []Variable
	cpus int
	mu   sync.Mutex // serializes OnPoint
}

// New creates a sweep over a base settings document. cpus bounds concurrent
// simulations (resource management via taskrun).
func New(base *config.Settings, cpus int) *Sweep {
	if cpus < 1 {
		cpus = 1
	}
	return &Sweep{base: base, cpus: cpus}
}

// AddVariable declares a sweep variable.
func (s *Sweep) AddVariable(v Variable) {
	if v.Name == "" || v.Short == "" || len(v.Values) == 0 || v.Apply == nil {
		panic("sweep: variable needs a name, short name, values and an apply function")
	}
	s.vars = append(s.vars, v)
}

// Permutations returns the number of simulations the sweep will run.
func (s *Sweep) Permutations() int {
	n := 1
	for _, v := range s.vars {
		n *= len(v.Values)
	}
	return n
}

// Run executes every permutation and returns the points of those that ran,
// in declaration order: the first variable varies slowest, as in nested
// loops over the variables in the order they were added. The returned error
// aggregates simulation failures; successful points are returned either way.
func (s *Sweep) Run() ([]Point, error) {
	if s.ManifestDir != "" {
		if err := os.MkdirAll(s.ManifestDir, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: manifest dir: %w", err)
		}
	}
	runner := taskrun.NewRunner(map[string]int{"cpu": s.cpus})
	runner.SetProbe(s.Probe)
	points := make([]Point, s.Permutations())
	idx := make([]int, len(s.vars))
	for i := range points {
		// Materialize this permutation.
		values := map[string]any{}
		var idParts []string
		if s.Name != "" {
			idParts = append(idParts, s.Name)
		}
		cfg := s.base.Clone()
		for vi, v := range s.vars {
			val := v.Values[idx[vi]]
			values[v.Name] = val
			idParts = append(idParts, fmt.Sprintf("%s=%v", v.Short, val))
			v.Apply(cfg, val)
		}
		id := strings.Join(idParts, "_")
		if id == "" {
			id = "base"
		}
		pt := &points[i]
		*pt = Point{ID: id, Values: values}
		t := runner.Task(id, func() error {
			pt.Err = s.runPoint(cfg, pt)
			return pt.Err
		}).Require("cpu", 1)
		if s.StopAfter != nil && len(idx) > 0 && idx[len(idx)-1] > 0 {
			// The runner evaluates the condition under its lock, after
			// before's action has written its point.
			before, beforePt := runner.Tasks()[i-1], &points[i-1]
			t.After(before).OnlyIf(func() bool {
				return before.State() == taskrun.Succeeded && !s.StopAfter(*beforePt)
			})
		}

		// Advance the mixed-radix counter, last variable fastest.
		for vi := len(idx) - 1; vi >= 0; vi-- {
			if idx[vi]++; idx[vi] < len(s.vars[vi].Values) {
				break
			}
			idx[vi] = 0
		}
	}
	err := runner.Run()
	ran := points[:0]
	for i, t := range runner.Tasks() {
		if st := t.State(); st == taskrun.Succeeded || st == taskrun.Failed {
			ran = append(ran, points[i])
		}
	}
	return ran, err
}

// runPoint builds and runs one permutation and fills in its readouts.
func (s *Sweep) runPoint(cfg *config.Settings, pt *Point) error {
	sm, err := core.BuildE(cfg)
	if err != nil {
		return err
	}
	res, err := sm.Run()
	if err != nil {
		return err
	}
	app := sm.Workload.App(0)
	sp, ok := app.(stats.Provider)
	if !ok {
		return fmt.Errorf("sweep: application 0 provides no statistics")
	}
	rec := sp.Stats()
	window := sm.Workload.PhaseTimes[workload.Finishing] -
		sm.Workload.PhaseTimes[workload.Generating]
	pt.Accepted = stats.Throughput(rec.Flits(), sm.Net.NumTerminals(),
		window, sm.Net.ChannelPeriod())
	if sk, ok := app.(interface{ Skipped() uint64 }); ok {
		pt.Skipped = sk.Skipped()
	}
	// Nothing below reads the simulation, so the collector can free it
	// before Summarize sorts a copy of every latency.
	pt.Summary = rec.Summarize()
	if s.ManifestDir != "" {
		if err := s.writeManifest(cfg, *pt, res); err != nil {
			return err
		}
	}
	if s.OnPoint != nil {
		s.mu.Lock()
		s.OnPoint(*pt, rec)
		s.mu.Unlock()
	}
	return nil
}

// writeManifest records one permutation's provenance: the point's effective
// config hash, its id and variable assignments as labels, and the final
// metrics. Sweep manifests deliberately omit wall-clock fields so a
// deterministic simulation yields byte-identical manifests.
func (s *Sweep) writeManifest(cfg *config.Settings, pt Point, res core.Result) error {
	m := manifest.New(cfg)
	m.SimTicks = uint64(res.EndTick)
	m.Events = res.Events
	m.Labels = map[string]string{"point": pt.ID}
	for name, val := range pt.Values {
		m.Labels[name] = fmt.Sprintf("%v", val)
	}
	m.Metrics = map[string]float64{
		"accepted":     pt.Accepted,
		"latency_mean": pt.Summary.Mean,
		"latency_p50":  pt.Summary.P50,
		"latency_p99":  pt.Summary.P99,
		"samples":      float64(pt.Summary.Count),
	}
	path := filepath.Join(s.ManifestDir, pt.ID+".manifest.json")
	if err := m.WriteFile(path); err != nil {
		return fmt.Errorf("sweep: manifest for %s: %w", pt.ID, err)
	}
	return nil
}
