// Command supersim runs one network simulation from a JSON settings file.
//
// Usage:
//
//	supersim myconfig.json [path=type=value ...]
//
// Command line overrides use path=type=value syntax, for example:
//
//	supersim myconfig.json \
//	    network.router.architecture=string=my_arch \
//	    network.concentration=uint=16
//
// The simulation's sampled transactions can be written to a log with
// -log <file> for analysis with the ssparse tool, and a summary of each
// application's latency statistics is printed on completion.
//
// Performance work is measured, not guessed: -cpuprofile and -memprofile
// write standard pprof profiles of the run, and -monitor N prints an
// events/sec + heap usage progress line to stderr every N executed events
// (also exported through the supersim.* expvar gauges).
//
// The telemetry subsystem (see OBSERVABILITY.md) is controlled by flags that
// map onto simulation.telemetry.* settings: -telemetry enables the metric
// registry, -telemetry-file <f> writes time-binned JSONL snapshots every
// -telemetry-bin ticks, -spans <f> writes per-message latency decompositions
// (spans JSONL, see ssparse -spans, which also renders them as a Chrome
// trace-event timeline with -chrome, and ssplot -plot breakdown) sampled at
// -spans-sample, and -telemetry-addr <host:port> serves live run
// introspection (/metrics Prometheus text, /progress JSON, /debug/pprof,
// /debug/vars) while the simulation executes. Modifier flags set without the
// flag they modify (-spans-sample without -spans, -telemetry-bin with no
// telemetry consumer) are rejected up front.
//
// -workers N executes the simulation on N parallel shards coordinated by the
// conservative lookahead engine (see DESIGN.md); results are byte-identical
// to the default serial run — including the -spans stream, which records into
// per-shard lanes merged back into the serial order at the end of the run.
// Parallel runs additionally expose per-shard engine metrics (engine_* in
// /metrics and snapshots) and a /shards JSON endpoint on -telemetry-addr.
//
// Provenance: -manifest <f> writes a versioned JSON run manifest on
// completion — the canonical config hash, seed, worker count, the flags of
// the invocation, wall/sim time, per-app latency metrics, and the SHA-256
// digest of every artifact the run produced (log, telemetry, spans,
// checkpoint). Manifests tie artifacts back to exactly what produced them;
// see OBSERVABILITY.md. -manifest is output-only and therefore also valid
// with -restore.
//
// Checkpointing: -checkpoint-every N -checkpoint-file F writes a complete
// snapshot of simulator state to F (atomically replaced) at every N-tick
// boundary while work remains; the pauses are invisible to the simulation.
// -restore F rebuilds a simulation from a snapshot — no config file or
// overrides are accepted, because the snapshot embeds its settings document —
// and runs it to completion with results byte-identical to the uninterrupted
// run. The one exception is -workers, which may re-partition the restored
// run; snapshots are partition-independent. The same behavior is available
// from a config file via the simulation.checkpoint_every and
// simulation.checkpoint_file keys (see CONFIG.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"supersim/internal/config"
	"supersim/internal/core"
	"supersim/internal/manifest"
	"supersim/internal/sim"
	"supersim/internal/ssparse"
	"supersim/internal/stats"
)

func main() {
	logPath := flag.String("log", "", "write sampled transactions to this file")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	monitor := flag.Uint64("monitor", 0, "report events/sec and heap every N executed events (0 disables)")
	verifyRun := flag.Bool("verify", false, "enable runtime invariant verification (flit/credit conservation, aliasing sentinel, progress watchdog)")
	telemetryOn := flag.Bool("telemetry", false, "enable the telemetry metrics registry")
	telemetryFile := flag.String("telemetry-file", "", "write time-binned telemetry snapshots (JSONL) to this file (implies -telemetry)")
	telemetryBin := flag.Uint64("telemetry-bin", 1000, "telemetry snapshot bin width in ticks")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live introspection HTTP on this address (implies -telemetry)")
	spansPath := flag.String("spans", "", "write per-message latency decompositions (spans JSONL) to this file (implies -telemetry)")
	spansSample := flag.Float64("spans-sample", 1.0, "fraction of messages to span-record, 0..1")
	workers := flag.Uint("workers", 1, "run the simulation on N parallel shards (results are identical to -workers 1)")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "write a checkpoint snapshot every N ticks (requires -checkpoint-file)")
	checkpointFile := flag.String("checkpoint-file", "", "checkpoint snapshot path, atomically replaced at each interval (requires -checkpoint-every)")
	restorePath := flag.String("restore", "", "restore simulator state from a checkpoint snapshot (replaces the config file argument)")
	manifestPath := flag.String("manifest", "", "write a run provenance manifest (JSON) to this file on completion")
	flag.Parse()
	set := map[string]bool{}
	flagVals := map[string]string{}
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		flagVals[f.Name] = f.Value.String()
	})
	if err := validateFlags(set, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "supersim:", err)
		os.Exit(2)
	}
	if *restorePath != "" {
		if flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "supersim: -restore takes no config file or overrides (the snapshot embeds its settings; only -workers may override)")
			os.Exit(2)
		}
	} else if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: supersim <config.json> [path=type=value ...]")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "supersim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "supersim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	var overrides []string
	if flag.NArg() > 1 {
		overrides = flag.Args()[1:]
	}
	err := run(flag.Arg(0), overrides, runOpts{
		logPath:         *logPath,
		quiet:           *quiet,
		monitor:         *monitor,
		verify:          *verifyRun,
		telemetry:       *telemetryOn,
		telemetryFile:   *telemetryFile,
		telemetryBin:    *telemetryBin,
		telemetryAddr:   *telemetryAddr,
		spansPath:       *spansPath,
		spansSample:     *spansSample,
		workers:         *workers,
		workersSet:      set["workers"],
		checkpointEvery: *checkpointEvery,
		checkpointFile:  *checkpointFile,
		restorePath:     *restorePath,
		manifestPath:    *manifestPath,
		flags:           flagVals,
	})
	if *memProfile != "" {
		if werr := writeMemProfile(*memProfile); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "supersim:", err)
		os.Exit(1)
	}
}

// checkpointSink returns a RunCheckpointed sink that atomically replaces the
// snapshot file at each interval: write to a temp file, then rename, so a
// crash mid-write never leaves a truncated snapshot as the only copy.
func checkpointSink(path string, quiet bool) func(sim.Tick, []byte) error {
	return func(tick sim.Tick, data []byte) error {
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, path); err != nil {
			return err
		}
		if !quiet {
			fmt.Printf("checkpoint: tick %d, %d bytes -> %s\n", tick, len(data), path)
		}
		return nil
	}
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle live objects so the heap profile reflects retention
	return pprof.Lookup("allocs").WriteTo(f, 0)
}

// runOpts carries the command-line options into run.
type runOpts struct {
	logPath       string
	quiet         bool
	monitor       uint64
	verify        bool
	telemetry     bool
	telemetryFile string
	telemetryBin  uint64
	telemetryAddr string
	spansPath     string
	spansSample   float64
	workers       uint
	workersSet    bool // -workers was given explicitly (matters with -restore)

	checkpointEvery uint64
	checkpointFile  string
	restorePath     string

	manifestPath string
	flags        map[string]string // flags explicitly set, name -> rendered value
}

// validateFlags rejects combinations where a modifier flag was set on the
// command line but the flag it modifies is absent: silently ignoring the
// modifier would make the run look correctly configured while producing none
// of the requested output, so fail fast instead.
func validateFlags(set map[string]bool, workers uint) error {
	if set["spans-sample"] && !set["spans"] {
		return fmt.Errorf("-spans-sample has no effect without -spans")
	}
	if set["telemetry-bin"] &&
		!set["telemetry"] && !set["telemetry-file"] && !set["telemetry-addr"] &&
		!set["spans"] {
		return fmt.Errorf("-telemetry-bin has no effect without -telemetry, -telemetry-file, -telemetry-addr, or -spans")
	}
	if set["checkpoint-every"] && !set["checkpoint-file"] {
		return fmt.Errorf("-checkpoint-every requires -checkpoint-file")
	}
	if set["checkpoint-file"] && !set["checkpoint-every"] {
		return fmt.Errorf("-checkpoint-file requires -checkpoint-every")
	}
	if set["restore"] {
		// A snapshot restores by rebuilding the identical component graph from
		// its embedded settings; any flag that would change those settings
		// would make the restored state incoherent. Worker count is the one
		// safe override: snapshots are partition-independent.
		for _, f := range []string{"verify", "telemetry", "telemetry-file", "telemetry-bin",
			"telemetry-addr", "spans", "spans-sample"} {
			if set[f] {
				return fmt.Errorf("-restore rebuilds from the snapshot's embedded settings; -%s would change them (only -workers may override)", f)
			}
		}
	}
	return nil
}

// apply translates the telemetry flags into simulation.telemetry.* settings
// overrides, the same keys a config file would use.
func (o *runOpts) apply(cfg *config.Settings) error {
	if o.verify {
		if err := cfg.ApplyOverride("simulation.verify.enabled=bool=true"); err != nil {
			return err
		}
	}
	if o.workers > 1 {
		if err := cfg.ApplyOverride(fmt.Sprintf("simulation.workers=uint=%d", o.workers)); err != nil {
			return err
		}
	}
	if o.checkpointEvery > 0 {
		if err := cfg.ApplyOverrides([]string{
			fmt.Sprintf("simulation.checkpoint_every=uint=%d", o.checkpointEvery),
			"simulation.checkpoint_file=string=" + o.checkpointFile,
		}); err != nil {
			return err
		}
	}
	if o.telemetryFile != "" || o.telemetryAddr != "" || o.spansPath != "" {
		o.telemetry = true
	}
	if !o.telemetry {
		return nil
	}
	ov := []string{
		"simulation.telemetry.enabled=bool=true",
		fmt.Sprintf("simulation.telemetry.bin=uint=%d", o.telemetryBin),
	}
	if o.telemetryFile != "" {
		ov = append(ov, "simulation.telemetry.snapshot_file=string="+o.telemetryFile)
	}
	if o.spansPath != "" {
		ov = append(ov,
			"simulation.telemetry.spans_file=string="+o.spansPath,
			fmt.Sprintf("simulation.telemetry.spans_sample=float=%g", o.spansSample))
	}
	return cfg.ApplyOverrides(ov)
}

func run(cfgPath string, overrides []string, o runOpts) error {
	startWall := time.Now()
	var sm *core.Simulation
	if o.restorePath != "" {
		data, err := os.ReadFile(o.restorePath)
		if err != nil {
			return err
		}
		// 0 keeps the snapshot's configured worker count; an explicit -workers
		// re-partitions the restored run (results are identical either way).
		workers := 0
		if o.workersSet {
			workers = int(o.workers)
		}
		var tick sim.Tick
		sm, tick, err = core.Restore(data, workers)
		if err != nil {
			return err
		}
		if !o.quiet {
			fmt.Printf("restored %s: checkpoint at tick %d\n", o.restorePath, tick)
		}
	} else {
		cfg, err := config.LoadFile(cfgPath)
		if err != nil {
			return err
		}
		if err := cfg.ApplyOverrides(overrides); err != nil {
			return err
		}
		if err := o.apply(cfg); err != nil {
			return err
		}
		if sm, err = core.BuildE(cfg); err != nil {
			return err
		}
	}
	cfg := sm.Config()
	if o.monitor > 0 {
		pm := &sim.ProgressMonitor{
			Out:     os.Stderr,
			EndTick: sim.Tick(cfg.UIntOr("simulation.monitor_end_tick", 0)),
		}
		pm.Attach(sm.Sim, o.monitor)
	}
	if o.telemetryAddr != "" && sm.Telemetry != nil {
		sm.Telemetry.Serve(o.telemetryAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "supersim: telemetry server:", err)
		})
		if !o.quiet {
			fmt.Printf("telemetry: serving http://%s/ (/metrics, /progress, /debug/pprof)\n", o.telemetryAddr)
		}
	}
	if !o.quiet {
		fmt.Printf("built %d routers, %d terminals, %d channels\n",
			sm.Net.NumRouters(), sm.Net.NumTerminals(), len(sm.Net.Channels()))
	}
	// Checkpointing: effective settings come from the (possibly embedded)
	// config document, which the checkpoint flags were mapped into — so a
	// restored run whose original invocation checkpointed keeps checkpointing,
	// and a config file can request it without any flags.
	every := sim.Tick(cfg.UIntOr("simulation.checkpoint_every", 0))
	ckPath := cfg.StringOr("simulation.checkpoint_file", "")
	if o.checkpointEvery > 0 {
		every, ckPath = sim.Tick(o.checkpointEvery), o.checkpointFile
	}
	if every > 0 && ckPath == "" {
		return fmt.Errorf("simulation.checkpoint_every is set but simulation.checkpoint_file is not")
	}
	if every == 0 && ckPath != "" {
		return fmt.Errorf("simulation.checkpoint_file is set but simulation.checkpoint_every is not")
	}
	var res core.Result
	var err error
	if every > 0 {
		res, err = sm.RunCheckpointed(every, checkpointSink(ckPath, o.quiet))
	} else {
		res, err = sm.Run()
	}
	if err != nil {
		return err
	}
	if !o.quiet {
		hops := flitHops(sm)
		fmt.Printf("simulation complete: %d events, %d ticks, %d flit-hops, %.3f events per flit-hop\n",
			res.Events, res.EndTick, hops, eventsPerFlitHop(res, hops))
		// Gets and releases count from the run's start; recycled hits from
		// this process's, so a restored run reports fewer.
		ps := sm.Workload.Pool().Stats()
		if ps.Gets > 0 {
			fmt.Printf("message pool: %d gets, %d recycled (%.1f%%), %d released\n",
				ps.Gets, ps.Hits, 100*float64(ps.Hits)/float64(ps.Gets), ps.Releases)
		}
	}
	var logFile *os.File
	if o.logPath != "" {
		logFile, err = os.Create(o.logPath)
		if err != nil {
			return err
		}
		defer logFile.Close()
	}
	for i := 0; i < sm.Workload.NumApps(); i++ {
		app := sm.Workload.App(i)
		sp, ok := app.(stats.Provider)
		if !ok {
			continue
		}
		rec := sp.Stats()
		sum := rec.Summarize()
		fmt.Printf("app %d: %d samples, latency mean=%.1f p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%.0f hops=%.2f nonmin=%.4f\n",
			i, sum.Count, sum.Mean, sum.P50, sum.P90, sum.P99, sum.P999, sum.Max, sum.MeanHops, sum.NonMinimal)
		if pp, ok := app.(interface{ PacketStats() *stats.Recorder }); ok {
			if ps := pp.PacketStats().Summarize(); ps.Count > sum.Count {
				fmt.Printf("app %d packets: %d samples, latency mean=%.1f p50=%.0f p99=%.0f\n",
					i, ps.Count, ps.Mean, ps.P50, ps.P99)
			}
		}
		if logFile != nil {
			if err := ssparse.Write(logFile, rec); err != nil {
				return err
			}
		}
	}
	if o.manifestPath != "" {
		if err := writeRunManifest(sm, cfg, o, res, startWall, ckPath); err != nil {
			return err
		}
		if !o.quiet {
			fmt.Printf("manifest: %s\n", o.manifestPath)
		}
	}
	return nil
}

// flitHops returns the flits the run sent over every channel, one per
// flit per hop: the unit the simulator's event cost is counted in.
func flitHops(sm *core.Simulation) uint64 {
	var n uint64
	for _, ch := range sm.Net.Channels() {
		n += ch.Injected()
	}
	return n
}

// eventsPerFlitHop is the run's events per flit-hop, 0 for a run that moved
// no flit.
func eventsPerFlitHop(res core.Result, hops uint64) float64 {
	if hops == 0 {
		return 0
	}
	return float64(res.Events) / float64(hops)
}

// writeRunManifest records the run's provenance next to its artifacts: config
// hash, seed, workers, the explicit flags, wall/sim time, events per
// flit-hop, per-app latency metrics, and a digest of every output file.
// Artifacts are added in a fixed role order so the document layout is
// stable; the checkpoint entry is stat-gated because a run shorter than the
// checkpoint interval never writes one.
func writeRunManifest(sm *core.Simulation, cfg *config.Settings, o runOpts,
	res core.Result, startWall time.Time, ckPath string) error {
	m := manifest.New(cfg)
	m.SimTicks = uint64(res.EndTick)
	m.Events = res.Events
	m.StartedAt = startWall.UTC().Format(time.RFC3339)
	m.WallSec = time.Since(startWall).Seconds()
	m.Flags = o.flags
	m.Metrics = map[string]float64{"sim.events_per_flit_hop": eventsPerFlitHop(res, flitHops(sm))}
	for i := 0; i < sm.Workload.NumApps(); i++ {
		sp, ok := sm.Workload.App(i).(stats.Provider)
		if !ok {
			continue
		}
		sum := sp.Stats().Summarize()
		prefix := fmt.Sprintf("app%d_", i)
		m.Metrics[prefix+"samples"] = float64(sum.Count)
		m.Metrics[prefix+"latency_mean"] = sum.Mean
		m.Metrics[prefix+"latency_p50"] = sum.P50
		m.Metrics[prefix+"latency_p99"] = sum.P99
	}
	artifacts := []struct{ role, path string }{
		{"log", o.logPath},
		{"telemetry", cfg.StringOr("simulation.telemetry.snapshot_file", "")},
		{"spans", cfg.StringOr("simulation.telemetry.spans_file", "")},
		{"checkpoint", ckPath},
	}
	for _, a := range artifacts {
		if a.path == "" {
			continue
		}
		if a.role == "checkpoint" {
			if _, err := os.Stat(a.path); err != nil {
				continue
			}
		}
		if err := m.AddArtifact(a.role, a.path); err != nil {
			return err
		}
	}
	return m.WriteFile(o.manifestPath)
}
