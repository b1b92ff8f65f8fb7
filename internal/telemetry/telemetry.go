// Package telemetry implements the simulator's observability subsystem: a
// per-simulation metrics registry (counters, gauges, power-of-two-bucketed
// histograms) with time-binned JSONL snapshotting, a per-message span
// recorder whose JSONL records ssparse renders as reports or a Chrome
// trace-event timeline, and a live introspection HTTP endpoint (Prometheus
// text /metrics, /debug/pprof, a JSON run-progress document).
//
// Discovery: telemetry is attached per Simulator (telemetry.Attach, stored
// in an opaque slot) and found by components at construction with the For*
// probe constructors, which return nil when telemetry is disabled. Every
// probe method is a no-op on a nil receiver, so components call their hooks
// unguarded and the disabled hot path costs one predictable (inlined) branch
// and zero allocations, which TestSteadyStateAllocations in internal/core and
// TestFigure5AllocationBudget in internal/experiments enforce.
//
// Telemetry is observation-only: it never touches the simulation PRNG or any
// component state, and span sampling is a pure hash of message IDs, so
// enabling any part of it cannot change simulation results. Snapshot events
// are scheduled as daemon events (sim.ScheduleDaemon), so periodic
// snapshotting never extends the life of a drained simulation.
package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"

	"supersim/internal/sim"
)

const evSnapshot = 0

// Options configures an attached Telemetry.
type Options struct {
	// BinTicks is the snapshot bin width in simulated ticks. Zero disables
	// the periodic snapshot event (metrics are still registered and
	// scrapeable over HTTP, but the progress document only updates at Close).
	BinTicks sim.Tick

	// SnapshotW, when non-nil, receives the JSONL snapshot stream, one bin
	// every BinTicks. If it also implements io.Closer, Close closes it.
	SnapshotW io.Writer

	// Spans, when non-nil, records per-hop latency decompositions of sampled
	// messages; its histograms fold into this telemetry's registry.
	Spans *Spans
}

// Progress is the run-progress document served by the HTTP endpoint and
// updated by snapshot bins and the workload's phase transitions.
type Progress struct {
	Tick      uint64  `json:"tick"`
	Events    uint64  `json:"events"`
	EventsSec float64 `json:"events_per_sec"`
	TicksSec  float64 `json:"ticks_per_sec"`
	Phase     string  `json:"phase"`
	Metrics   int     `json:"metrics"`
	SpanRecs  uint64  `json:"span_records,omitempty"`
	WallSec   float64 `json:"wall_sec"`
}

// Telemetry is the per-simulation observability hub. Create one with Attach
// before building components; components find it with For.
type Telemetry struct {
	sim.ComponentBase
	opts Options
	reg  *Registry

	enc *json.Encoder
	bw  *bufio.Writer
	wc  io.Closer

	first  bool // next snapshot is the baseline bin
	closed bool // output latch; a restored run opens its own writer
	apps   int  // the workload's application count, which bounds a restored span's app

	mu        sync.Mutex
	phase     string
	startWall time.Time
	// Wall-clock progress bookkeeping, for presentation only.
	lastWall time.Time
	lastTick uint64
	lastEvs  uint64
	prog     Progress
}

// Attach creates a Telemetry and registers it on the simulator so that
// components built afterwards discover it. Attaching twice panics.
func Attach(s *sim.Simulator, opts Options) *Telemetry {
	if s.Telemetry() != nil {
		panic("telemetry: simulator already has telemetry attached")
	}
	t := &Telemetry{
		ComponentBase: sim.NewComponentBase(s, "telemetry"),
		opts:          opts,
		reg:           newRegistry(),
		first:         true,
		phase:         "build",
		startWall:     time.Now(),
	}
	t.lastWall = t.startWall
	if opts.SnapshotW != nil {
		t.bw = bufio.NewWriterSize(opts.SnapshotW, 1<<16)
		t.enc = json.NewEncoder(t.bw)
		if c, ok := opts.SnapshotW.(io.Closer); ok {
			t.wc = c
		}
	}
	if opts.Spans != nil {
		opts.Spans.reg = t.reg
	}
	if opts.BinTicks > 0 {
		s.ScheduleDaemon(t, sim.Time{Tick: opts.BinTicks}, evSnapshot, nil)
	}
	s.SetTelemetry(t)
	return t
}

// For returns the simulator's attached Telemetry, or nil when disabled.
func For(s *sim.Simulator) *Telemetry {
	if t, ok := s.Telemetry().(*Telemetry); ok {
		return t
	}
	return nil
}

// Registry returns the metric registry.
func (t *Telemetry) Registry() *Registry { return t.reg }

// Spans returns the attached span recorder, or nil.
func (t *Telemetry) Spans() *Spans { return t.opts.Spans }

// SpansFor returns the simulator's span recorder, or nil when telemetry or
// span recording is disabled. Components call it once at construction and
// keep the pointer; a nil *Spans records nothing.
func SpansFor(s *sim.Simulator) *Spans {
	t := For(s)
	if t == nil {
		return nil
	}
	return t.opts.Spans
}

// SetPhase records the workload phase shown in the progress document.
func (t *Telemetry) SetPhase(phase string) {
	t.mu.Lock()
	t.phase = phase
	t.mu.Unlock()
}

// ProcessEvent runs one snapshot bin and re-arms while real simulation work
// remains queued.
func (t *Telemetry) ProcessEvent(ev *sim.Event) {
	if ev.Type != evSnapshot {
		t.Panicf("unknown event type %d", ev.Type)
	}
	t.snapshotNow()
	// Re-arm only while non-daemon events are pending: a perpetual snapshot
	// would keep a drained simulation alive forever, and two daemons
	// counting each other as work would keep each other alive.
	if t.Sim().PendingNonDaemon() > 0 {
		t.Sim().ScheduleDaemon(t, t.Sim().Now().Plus(t.opts.BinTicks), evSnapshot, nil)
	}
}

func (t *Telemetry) snapshotNow() {
	now := uint64(t.Sim().Now().Tick)
	if t.enc != nil {
		if err := t.reg.snapshot(t.enc, now, uint64(t.opts.BinTicks), t.first); err != nil {
			t.Panicf("snapshot write failed: %v", err)
		}
		t.first = false
	}
	t.updateProgress(now)
}

func (t *Telemetry) updateProgress(tick uint64) {
	evs := t.Sim().Executed()
	wall := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := Progress{
		Tick:    tick,
		Events:  evs,
		Phase:   t.phase,
		Metrics: t.reg.Len(),
		WallSec: wall.Sub(t.startWall).Seconds(),
	}
	if secs := wall.Sub(t.lastWall).Seconds(); secs > 0 {
		p.EventsSec = float64(evs-t.lastEvs) / secs
		p.TicksSec = float64(tick-t.lastTick) / secs
	}
	p.SpanRecs = t.opts.Spans.Records()
	t.lastWall, t.lastTick, t.lastEvs = wall, tick, evs
	t.prog = p
}

// ProgressDoc returns a copy of the latest progress document.
func (t *Telemetry) ProgressDoc() Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prog
}

// Close emits a final snapshot bin (so the tail of the run is never lost),
// flushes and closes the snapshot stream, and closes the spans stream. It is
// idempotent; core.Run calls it after the network drains.
func (t *Telemetry) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.SetPhase("done")
	t.snapshotNow()
	var err error
	if t.bw != nil {
		err = t.bw.Flush()
	}
	if t.wc != nil {
		if cerr := t.wc.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := t.opts.Spans.Close(); err == nil {
		err = cerr
	}
	return err
}
