// Package core assembles complete simulations from JSON settings: it builds
// the simulator, the network (topology, routers, interfaces, channels) and
// the workload (applications, terminals), runs the four-phase protocol to
// completion, and reports the outcome.
//
// The top level of any network simulation holds two blocks — "network" and
// "workload" — plus an optional "simulation" block for the seed:
//
//	{
//	  "simulation": {"seed": 1},
//	  "network":    {"topology": "...", "router": {...}, ...},
//	  "workload":   {"applications": [{"type": "blast", ...}]}
//	}
package core

import (
	"fmt"
	"io"
	"os"

	"supersim/internal/config"
	"supersim/internal/diagnose"
	"supersim/internal/network"
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/verify"
	"supersim/internal/workload"

	// Component model registrations: each topology and application model
	// self-registers from its own package, so assembling a simulator is just
	// importing the models it should know about.
	_ "supersim/internal/network/dragonfly"
	_ "supersim/internal/network/foldedclos"
	_ "supersim/internal/network/hyperx"
	_ "supersim/internal/network/parkinglot"
	_ "supersim/internal/network/torus"
	_ "supersim/internal/workload/apps"
)

// Simulation is a fully assembled simulation.
type Simulation struct {
	Sim       *sim.Simulator
	Net       network.Network
	Workload  *workload.Workload
	Verify    *verify.Verifier     // nil unless simulation.verify.enabled
	Telemetry *telemetry.Telemetry // nil unless simulation.telemetry.enabled

	// Shards is always nil; benchmark/child.go still reads it (ROADMAP 4(a)).
	Shards []struct{}

	// cfg is the settings document the simulation was built from, retained so
	// checkpoints can embed it (a snapshot restores by rebuilding the identical
	// component graph and overwriting its state).
	cfg *config.Settings

	// snapLen is the length of the last snapshot taken, which sizes the next
	// one's buffer.
	snapLen int

	// files are the telemetry's output files. A run closes them through the
	// telemetry; a Restore that fails after building closes them itself.
	files []*os.File
}

// Config returns the settings document the simulation was built from. For a
// restored simulation this is the snapshot's embedded document, so drivers
// can read effective settings either way.
func (sm *Simulation) Config() *config.Settings { return sm.cfg }

// Build assembles a simulation from the full settings document. It panics
// (with *config.Error where applicable) on invalid settings; use BuildE for
// an error-returning wrapper.
func Build(cfg *config.Settings) *Simulation {
	// simulation.telemetry.trace_file asked for the Chrome trace of a flit
	// tracer this build no longer has; fail rather than write nothing (the
	// timeline is rendered offline from a spans stream). trace_sample alone is
	// ignored: earlier command lines set it on every telemetry run, so their
	// snapshots embed it.
	if cfg.Has("simulation.telemetry.trace_file") {
		panic("core: simulation.telemetry.trace_file is no longer supported: record spans with " +
			"simulation.telemetry.spans_file and render the timeline with ssparse -spans <file> -chrome <out.json>")
	}
	seed := cfg.UIntOr("simulation.seed", 1)
	s := sim.NewSimulator(seed)
	// Opt-in progress reporting: "simulation": {"monitor_interval": N} emits
	// an events/sec + heap line to stderr (and the supersim.* expvar gauges)
	// every N executed events. Reporting is observation-only and cannot
	// perturb determinism.
	// simulation.monitor_end_tick, when the driver knows the run's horizon,
	// adds an ETA to each progress line.
	if mi := cfg.UIntOr("simulation.monitor_interval", 0); mi > 0 {
		pm := &sim.ProgressMonitor{
			Out:     os.Stderr,
			EndTick: sim.Tick(cfg.UIntOr("simulation.monitor_end_tick", 0)),
		}
		pm.Attach(s, mi)
	}
	// Opt-in invariant verification: "simulation": {"verify": {"enabled": true}}
	// attaches the runtime checker before any component is constructed, so
	// every interface, channel, and router picks it up via verify.For.
	var v *verify.Verifier
	if cfg.BoolOr("simulation.verify.enabled", false) {
		v = verify.Attach(s, verify.Options{
			WatchdogEpoch: sim.Tick(cfg.UIntOr("simulation.verify.watchdog_epoch", 100000)),
		})
	}
	// The telemetry's output files are closed here if a later step panics;
	// a completed build hands them to the telemetry, whose Close closes them.
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	// Opt-in telemetry: "simulation": {"telemetry": {"enabled": true, ...}}
	// attaches the metrics and span-recording subsystem before components are
	// built, so channels, routers, interfaces and the workload pick up their
	// probes via the telemetry.For* constructors. Like verification it is
	// observation-only: traffic results are identical with it on or off.
	var tel *telemetry.Telemetry
	if cfg.BoolOr("simulation.telemetry.enabled", false) {
		opts := telemetry.Options{
			BinTicks: sim.Tick(cfg.UIntOr("simulation.telemetry.bin", 1000)),
		}
		if path := cfg.StringOr("simulation.telemetry.snapshot_file", ""); path != "" {
			f, err := os.Create(path)
			if err != nil {
				panic(fmt.Sprintf("core: telemetry snapshot file: %v", err))
			}
			files = append(files, f)
			opts.SnapshotW = f
		}
		// Span recording: "spans_file" streams per-message latency
		// decompositions as JSONL; "spans_sample" alone folds sampled spans
		// into the registry histograms without a stream (the critical-path
		// report still reaches snapshots and Prometheus).
		spansPath := cfg.StringOr("simulation.telemetry.spans_file", "")
		spansSample := cfg.FloatOr("simulation.telemetry.spans_sample", 0)
		if spansPath != "" && !cfg.Has("simulation.telemetry.spans_sample") {
			spansSample = 1.0
		}
		if spansPath != "" || spansSample > 0 {
			var w io.Writer
			if spansPath != "" {
				f, err := os.Create(spansPath)
				if err != nil {
					panic(fmt.Sprintf("core: telemetry spans file: %v", err))
				}
				files = append(files, f)
				w = f
			}
			opts.Spans = telemetry.NewSpans(w, spansSample)
		}
		tel = telemetry.Attach(s, opts)
	}
	net := network.New(s, cfg.Sub("network"))
	if v != nil {
		// With the network built the watchdog can do better than an occupancy
		// dump: the diagnostician walks head-of-line dependency chains and
		// names the resource each blocked flit waits on.
		v.SetDiagnoser(diagnose.New(net).Report)
	}
	w := workload.New(s, cfg.Sub("workload"), net)
	if v != nil {
		// The workload's message pool reports obtain/release so stale pooled
		// pointers (aliasing bugs) are caught by the generation sentinel.
		w.Pool().SetObserver(v)
	}
	sm := &Simulation{Sim: s, Net: net, Workload: w, Verify: v, Telemetry: tel, cfg: cfg, files: files}
	files = nil
	return sm
}

// BuildE is Build with panics recovered into errors.
func BuildE(cfg *config.Settings) (sm *Simulation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: build failed: %v", r)
		}
	}()
	return Build(cfg), nil
}

// Result summarizes a completed run.
type Result struct {
	Events  uint64   // non-daemon events executed
	EndTick sim.Tick // time of the last non-daemon event — the logical end
	Drained bool     // the workload reached the draining phase
}

// Run executes the simulation until the event queue runs empty and verifies
// the workload protocol completed. It returns an error when the queue
// drained in an earlier phase, which indicates stalled traffic (for example
// a deadlock or a misconfigured application).
func (sm *Simulation) Run() (res Result, err error) {
	defer sm.closeTelemetry(&err)
	sm.Sim.Run()
	return sm.verifyOutcome()
}

// closeTelemetry writes the final snapshot bin and flushes and closes the
// output streams. Run and RunCheckpointed defer it, so it happens even when
// the run errors out — a truncated stream of a stalled run is exactly what
// the diagnosis needs — and a close failure becomes the error of a run that
// otherwise succeeded, since its output files are incomplete.
func (sm *Simulation) closeTelemetry(err *error) {
	if sm.Telemetry == nil {
		return
	}
	if cerr := sm.Telemetry.Close(); cerr != nil && *err == nil {
		*err = fmt.Errorf("core: telemetry output: %w", cerr)
	}
}

// verifyOutcome assembles the Result and runs the post-drain checks shared by
// Run and RunCheckpointed. The counts are cumulative rather than the last
// call's: a restored simulation resumes with the checkpoint's totals already
// seeded, and its final counts must match the uninterrupted run's.
func (sm *Simulation) verifyOutcome() (Result, error) {
	res := Result{
		Events:  sm.Sim.Executed(),
		EndTick: sm.Sim.LastWork().Tick,
		Drained: sm.Workload.Phase() == workload.Draining,
	}
	if !res.Drained {
		return res, fmt.Errorf("core: event queue drained during %v phase — traffic stalled",
			sm.Workload.Phase())
	}
	// Post-drain quiescence: every router and interface must be completely
	// idle — empty queues, no held allocations, all credits returned. Any
	// leak panics with component context.
	for i := 0; i < sm.Net.NumRouters(); i++ {
		sm.Net.Router(i).VerifyIdle()
	}
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		sm.Net.Interface(i).VerifyIdle()
	}
	if sm.Verify != nil {
		sm.Verify.VerifyDrained()
	}
	return res, nil
}
