package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"supersim/internal/core"
	"supersim/internal/sim"
	"supersim/internal/stats"
)

// processStart is the origin of span times.
var processStart = time.Now()

// childEnv carries one opSpec from the parent to a re-exec of this binary.
// An environment variable rather than a flag, so the test binary can serve
// as the child too.
const childEnv = "SSBENCH_OP"

// opSpec is one simulation a child process performs.
type opSpec struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	Rep      int     `json:"rep"`
	Trace    bool    `json:"trace"`
	// StartUnixNS is the parent's clock just before it started the child.
	// setup_s runs from here to the first simulated event, so it includes
	// exec, runtime start-up and package initialisation (the model
	// registries), as a user's run does.
	StartUnixNS int64 `json:"start_unix_ns"`
	// ProfileBase is the path prefix for the CPU profiles of a traced op;
	// each run span writes <base>.<n>.prof.
	ProfileBase string `json:"profile_base,omitempty"`
}

// opResult is what a child reports. Times are host seconds; EndTick,
// Events, FlitHops, Samples and Fingerprint are simulated statistics and
// repeat exactly for one (workload base, seed, scale).
type opResult struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Err      string `json:"err,omitempty"`

	Fingerprint string `json:"fingerprint"`
	EndTick     uint64 `json:"end_tick"`
	Events      uint64 `json:"events"`
	FlitHops    uint64 `json:"flit_hops"`
	Samples     int    `json:"samples"`

	RunS      float64 `json:"run_s"`
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	CPUS      float64 `json:"cpu_s"` // user+sys of all threads inside the run spans

	AllocMB   float64 `json:"alloc_mb"` // runtime.MemStats.TotalAlloc at the end of the run
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`

	SnapshotCount int `json:"snapshot_count,omitempty"`
	SnapshotBytes int `json:"snapshot_bytes,omitempty"`

	// Traced ops only.
	Spans       []span             `json:"spans,omitempty"`
	Profiles    []string           `json:"profiles,omitempty"`
	PendingMean float64            `json:"pending_mean,omitempty"`
	PendingMax  float64            `json:"pending_max,omitempty"`
	ReplayS     map[string]float64 `json:"replay_s,omitempty"`
	CPUShare    map[string]float64 `json:"cpu_share,omitempty"` // filled by the parent from Profiles
}

// childMain runs the op named by the environment and prints its result as
// one JSON line. A panic anywhere in the simulator becomes a failed op.
func childMain(specJSON string) {
	var spec opSpec
	res := opResult{}
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		res.Err = fmt.Sprintf("bad %s: %v", childEnv, err)
	} else {
		res = runOp(spec)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssbench child:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
}

// op is the state of one simulation in flight.
type op struct {
	spec opSpec
	w    *workload
	tr   tracer
	res  opResult

	horizon uint64
	latency sim.Tick // the network's channel latency
	pending []int
	kept    []byte // the snapshot a ckpt workload restores
}

func runOp(spec opSpec) (res opResult) {
	o := &op{spec: spec, w: findWorkload(spec.Workload)}
	o.res = opResult{Workload: spec.Workload, Rep: spec.Rep}
	if o.w == nil {
		o.res.Err = "unknown workload " + spec.Workload
		return o.res
	}
	o.tr.on = spec.Trace
	defer func() {
		if r := recover(); r != nil {
			pprof.StopCPUProfile()
			o.res.Err = fmt.Sprintf("panic: %v", r)
			res = o.res
		}
	}()
	if err := o.run(); err != nil {
		o.res.Err = err.Error()
	}
	return o.res
}

func (o *op) run() error {
	root := o.tr.begin("op", -1)

	setup := o.tr.begin("setup", root)
	c := o.tr.begin("config", setup)
	cfg, horizon := o.w.config(o.spec.Seed, o.spec.Scale)
	o.horizon = horizon
	o.latency = sim.Tick(cfg.UInt("network.channel.latency"))
	o.tr.end(c)
	b := o.tr.begin("core.Build", setup)
	sm := core.Build(cfg)
	o.tr.end(b)
	o.tr.end(setup)
	o.res.SetupS = time.Since(time.Unix(0, o.spec.StartUnixNS)).Seconds()

	ckpt := o.w.ckpt
	result, err := o.timedRun(root, sm, ckpt)
	if err != nil {
		return err
	}
	checkpointed := ""
	if ckpt {
		// The checkpointed run went to its end; now the read side: restore
		// the kept snapshot and run the rest again. Both halves count.
		if o.kept == nil {
			return fmt.Errorf("no snapshot was kept: the run ended before checkpoint %d", ckptKeep)
		}
		checkpointed = fingerprint(sm, result)
		setup := o.tr.begin("setup", root)
		r := o.tr.begin("core.Restore", setup)
		t0 := time.Now()
		sm, _, err = core.Restore(o.kept, 0)
		o.res.SetupS += time.Since(t0).Seconds()
		o.tr.end(r)
		o.tr.end(setup)
		if err != nil {
			return err
		}
		o.kept = nil
		if result, err = o.timedRun(root, sm, false); err != nil {
			return err
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.res.AllocMB = float64(ms.TotalAlloc) / 1e6
	o.res.GCCycles = ms.NumGC
	o.res.GCPauseMS = float64(ms.PauseTotalNs) / 1e6

	extract := o.tr.begin("extract", root)
	s := o.tr.begin("Summarize", extract)
	for _, rec := range recorders(sm) {
		o.res.Samples += rec.Summarize().Count
	}
	o.tr.end(s)
	f := o.tr.begin("fingerprint", extract)
	o.res.Fingerprint = fingerprint(sm, result)
	o.tr.end(f)
	o.tr.end(extract)
	if ckpt && o.res.Fingerprint != checkpointed {
		return fmt.Errorf("resumed run's fingerprint %s differs from the checkpointed run's %s", o.res.Fingerprint, checkpointed)
	}

	o.res.EndTick = uint64(result.EndTick)
	o.res.Events = result.Events
	for _, ch := range sm.Net.Channels() {
		o.res.FlitHops += ch.Injected()
	}
	o.res.PeakRSSMB = float64(rusage().Maxrss) / 1024 // Linux reports KB

	if o.spec.Trace {
		o.summarizePending()
		rp := o.tr.begin("replay", root)
		o.res.ReplayS = map[string]float64{}
		o.replayStats(rp, sm)
		o.replayQueue(rp)
		o.tr.end(rp)
	}
	o.tr.end(root)
	o.res.Spans = o.tr.spans
	return nil
}

// timedRun executes sm to completion inside a "run" span, checkpointing on
// the way if ckpt is set, and adds the span's wall and CPU seconds to the
// result.
func (o *op) timedRun(parent int, sm *core.Simulation, ckpt bool) (core.Result, error) {
	run := o.tr.begin("run", parent)
	defer o.tr.end(run)
	if o.spec.Trace {
		stop, err := o.startProfile()
		if err != nil {
			return core.Result{}, err
		}
		defer stop()
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	defer func() {
		o.res.RunS += time.Since(t0).Seconds()
		o.res.CPUS += cpuSeconds() - cpu0
	}()

	sink := func(tick sim.Tick, data []byte) error {
		o.res.SnapshotCount++
		o.res.SnapshotBytes += len(data)
		if o.res.SnapshotCount == ckptKeep {
			o.kept = data
		}
		return nil
	}
	every := o.slice() * ckptSlices
	var result core.Result
	var err error
	switch {
	case o.spec.Trace && sm.Shards == nil:
		if !ckpt {
			every = 0
		}
		result, err = o.slicedRun(run, sm, every, sink)
	case ckpt:
		s := o.tr.begin("core.RunCheckpointed", run)
		result, err = sm.RunCheckpointed(every, sink)
		o.tr.end(s)
	default:
		s := o.tr.begin("core.Run", run)
		result, err = sm.Run()
		o.tr.end(s)
	}
	if err == nil && !result.Drained {
		err = fmt.Errorf("run ended without draining")
	}
	return result, err
}

// slicedRun is the traced serial driver. It advances the simulation through
// the same public calls RunCheckpointed's serial path makes — RunUntil to
// each boundary, Snapshot at the checkpoint boundaries, Run for the tail —
// so that it can read Sim.Pending() between slices and put a span around
// each Snapshot, neither of which is visible from outside Run. The
// fingerprint check holds it to the untraced result. every is 0 when no
// checkpoints are wanted.
func (o *op) slicedRun(parent int, sm *core.Simulation, every sim.Tick, sink func(sim.Tick, []byte) error) (core.Result, error) {
	name := "core.Run"
	if every > 0 {
		name = "core.RunCheckpointed"
	}
	s := o.tr.begin(name, parent)
	defer o.tr.end(s)
	slice := o.slice()
	for at := (sm.Sim.Now().Tick/slice + 1) * slice; ; at += slice {
		sm.Sim.RunUntil(at)
		if sm.Sim.Stopped() || sm.Sim.PendingNonDaemon() == 0 {
			break
		}
		o.pending = append(o.pending, sm.Sim.Pending())
		if every > 0 && at%every == 0 {
			sn := o.tr.begin("core.Snapshot", s)
			data, err := sm.Snapshot(at)
			o.tr.end(sn)
			if err != nil {
				return core.Result{}, err
			}
			if err := sink(at, data); err != nil {
				return core.Result{}, err
			}
		}
	}
	return sm.Run()
}

func (o *op) summarizePending() {
	if len(o.pending) == 0 {
		return
	}
	sum, max := 0, 0
	for _, p := range o.pending {
		sum += p
		if p > max {
			max = p
		}
	}
	o.res.PendingMean = float64(sum) / float64(len(o.pending))
	o.res.PendingMax = float64(max)
}

// startProfile begins a CPU profile of one run span at 500 Hz.
func (o *op) startProfile() (stop func(), err error) {
	path := fmt.Sprintf("%s.%d.prof", o.spec.ProfileBase, len(o.res.Profiles))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// pprof.StartCPUProfile asks for 100 Hz and the runtime keeps a rate
	// that is already set, so setting 500 Hz first is how a program raises
	// it. The runtime notes the refused second request on stderr; the
	// parent shows a child's stderr only when the op fails.
	runtime.SetCPUProfileRate(500)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	o.res.Profiles = append(o.res.Profiles, path)
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func recorders(sm *core.Simulation) []*stats.Recorder {
	var out []*stats.Recorder
	for i := 0; i < sm.Workload.NumApps(); i++ {
		if p, ok := sm.Workload.App(i).(stats.Provider); ok {
			out = append(out, p.Stats())
		}
	}
	return out
}

// fingerprint hashes the simulated outcome: the end tick, every recorded
// sample of every application in order, and every channel's flit count.
// Result.Events is left out so that a change may legally coalesce events.
func fingerprint(sm *core.Simulation, result core.Result) string {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		w.Write(buf[:]) // a hash's Write never fails
	}
	put(uint64(result.EndTick))
	for _, rec := range recorders(sm) {
		put(uint64(rec.Count()))
		for _, s := range rec.Samples() {
			put(uint64(s.Start))
			put(uint64(s.End))
			put(uint64(s.Flits))
			put(uint64(s.Hops))
			nonMinimal := uint64(0)
			if s.NonMinimal {
				nonMinimal = 1
			}
			put(nonMinimal)
			put(uint64(s.App))
			put(uint64(s.Src))
			put(uint64(s.Dst))
		}
	}
	for _, ch := range sm.Net.Channels() {
		put(ch.Injected())
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer or selector.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
