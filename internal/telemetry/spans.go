package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"supersim/internal/sim"
	"supersim/internal/types"
)

// The span recorder decomposes each sampled message's end-to-end latency into
// the time it spent in every pipeline stage of every hop. It rides the same
// probe points the tracer uses — one tracked flit per message (the head flit
// of packet 0) is timestamped at each lifecycle transition, and the time since
// the previous transition is charged to exactly one span kind. Because every
// tick between message creation and message delivery is charged somewhere,
// the decomposition is exact by construction: Finish asserts that the
// components sum to the end-to-end latency and panics on any unattributed
// tick, so a missing or misplaced probe cannot produce silently wrong
// attributions.
//
// Sampling reuses the tracer's message-ID hash (never the simulation PRNG),
// so span recording is observation-only and all transitions of a message are
// either all recorded or all skipped. Each finished message is folded online
// into per-hop, per-component registry histograms (metric span_<kind>,
// component app<N>, vc field = hop index) — these flow into the telemetry
// JSONL snapshot stream and the Prometheus exposition — and optionally
// emitted as one JSONL record for offline analysis with ssparse -spans and
// ssplot -plot breakdown.

// SpanKind identifies the pipeline stage a latency segment is charged to.
type SpanKind uint8

const (
	// SpanQueue is source queueing: message creation to first flit entering
	// the injection channel (injection-queue wait plus credit backpressure).
	SpanQueue SpanKind = iota
	// SpanVCAlloc is route computation plus the wait for an output VC grant.
	SpanVCAlloc
	// SpanSWAlloc is the wait for switch allocation after the VC grant: the
	// crossbar arbitration and, in the IQ architecture, downstream credits.
	SpanSWAlloc
	// SpanXbar is the crossbar (IQ/IOQ) or queue-transfer (OQ) traversal.
	SpanXbar
	// SpanOutput is output-queue residency waiting for downstream credits
	// (OQ/IOQ architectures only; structurally zero for IQ).
	SpanOutput
	// SpanWire is channel propagation plus serialization.
	SpanWire
	// SpanEject is the reassembly tail: tracked-flit arrival at the
	// destination until the message's last flit is delivered.
	SpanEject
)

func (k SpanKind) String() string {
	switch k {
	case SpanQueue:
		return "queue"
	case SpanVCAlloc:
		return "vc_alloc"
	case SpanSWAlloc:
		return "sw_alloc"
	case SpanXbar:
		return "xbar"
	case SpanOutput:
		return "output"
	case SpanWire:
		return "wire"
	case SpanEject:
		return "eject"
	}
	return "unknown"
}

// Span stream schema: the first line of a spans JSONL file is a header that
// names the schema and its version, so readers can reject streams written by
// an incompatible simulator instead of misparsing them. Bump SpanSchemaVersion
// on any incompatible record change.
const (
	SpanSchema        = "supersim-spans"
	SpanSchemaVersion = 1
)

// SpanHeader is the first line of a spans JSONL stream.
type SpanHeader struct {
	Schema  string  `json:"schema"`
	Version int     `json:"version"`
	Sample  float64 `json:"sample"`
}

// SpanHop is the latency decomposition of one hop on a message's path. All
// values are in ticks. Hop 0 is the source interface, where only Wire (the
// injection link) is populated; hops 1..N are routers.
type SpanHop struct {
	VCAlloc uint64 `json:"vc,omitempty"`
	SWAlloc uint64 `json:"sw,omitempty"`
	Xbar    uint64 `json:"xbar,omitempty"`
	Output  uint64 `json:"out,omitempty"`
	Wire    uint64 `json:"wire,omitempty"`
}

// Total returns the hop's summed latency.
func (h *SpanHop) Total() uint64 {
	return h.VCAlloc + h.SWAlloc + h.Xbar + h.Output + h.Wire
}

// SpanRecord is one message's exact latency decomposition:
// Queue + Eject + sum over PerHop of every component == E2E.
type SpanRecord struct {
	Msg    uint64    `json:"msg"`
	App    int       `json:"app"`
	Src    int       `json:"src"`
	Dst    int       `json:"dst"`
	Hops   int       `json:"hops"` // router hops = len(PerHop)-1
	E2E    uint64    `json:"e2e"`
	Queue  uint64    `json:"queue"`
	Eject  uint64    `json:"eject"`
	PerHop []SpanHop `json:"perhop"`
}

// ComponentSum re-adds every component of the record; readers use it to
// verify the exactness invariant against E2E.
func (r *SpanRecord) ComponentSum() uint64 {
	total := r.Queue + r.Eject
	for i := range r.PerHop {
		total += r.PerHop[i].Total()
	}
	return total
}

// msgSpan is the in-flight state of one sampled message: the record being
// built, the tick of the last recorded transition, and the current hop index.
type msgSpan struct {
	rec   SpanRecord
	lastT sim.Tick
	hop   int
}

type spanHistKey struct {
	kind SpanKind
	app  int
	hop  int
}

// Spans is the per-simulation span recorder. Create it with NewSpans, hand it
// to telemetry.Attach via Options.Spans, and components discover it with
// SpansFor. A nil *Spans is the disabled recorder: it samples nothing and
// every method is a no-op, so components call it unguarded. On a serial
// simulator all recording methods run on the simulation thread and apply
// immediately; only the Records counter is read concurrently (progress
// document).
//
// Under a parallel engine (partition), each recording call instead appends a
// value-captured operation — start, step, or finish — to the calling shard's
// lane, tagged with the executing event's sim.Stamp. Lanes are replayed in
// merged stamp order at seal time (see mergeByStamp), which is exactly the
// serial order, so the folded histograms, the JSONL stream, and the exactness
// assertion behave byte-identically to a serial run for any worker count.
type Spans struct {
	threshold uint64 // sample iff top 16 hash bits < threshold
	fraction  float64
	reg       *Registry // set by Attach; nil folds nothing
	// The JSONL output stream; a restored run writes its own.
	w      *bufio.Writer
	c      io.Closer
	enc    *json.Encoder
	header bool

	live    map[uint64]*msgSpan
	free    []*msgSpan                 // span recycling cache
	hists   map[spanHistKey]*Histogram // rebuilt lazily against the restored registry
	e2e     map[int]*Histogram         // per app, rebuilt like hists
	records atomic.Uint64

	// lanes, when non-nil, switches recording to per-shard op buffering;
	// lane k is written only by shard k's goroutine and replayed by seal
	// between phases.
	lanes [][]spanOp
}

// spanOp opcodes.
const (
	opStart uint8 = iota
	opStep
	opFinish
)

// spanOp is one buffered recording operation, captured by value (messages and
// flits are pooled, so pointers must not be retained past the event).
//
//	opStart:  msg/app/src/dst identify the message, t is its CreateTime.
//	opStep:   msg and kind identify the transition, t is the current tick.
//	opFinish: t is the message's ReceiveTime, t2 its CreateTime.
type spanOp struct {
	stamp sim.Stamp
	msg   uint64
	t     sim.Tick
	t2    sim.Tick
	app   int
	src   int
	dst   int
	op    uint8
	kind  SpanKind
}

// NewSpans creates a span recorder sampling the given fraction of messages
// (clamped to [0,1]). w, when non-nil, receives the spans JSONL stream (one
// header line, then one record per finished message, in delivery order); if
// it also implements io.Closer, Close closes it. With a nil w the recorder
// only folds into the registry histograms.
func NewSpans(w io.Writer, fraction float64) *Spans {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	sp := &Spans{
		threshold: uint64(fraction * 65536),
		fraction:  fraction,
		live:      make(map[uint64]*msgSpan),
		hists:     make(map[spanHistKey]*Histogram),
		e2e:       make(map[int]*Histogram),
	}
	if w != nil {
		sp.w = bufio.NewWriterSize(w, 1<<16)
		sp.enc = json.NewEncoder(sp.w)
		if c, ok := w.(io.Closer); ok {
			sp.c = c
		}
	}
	return sp
}

// SampledMsg reports whether the message with the given ID is recorded. Same
// multiplicative hash as the tracer: a pure function of the ID, so every
// probe point agrees without coordination.
func (sp *Spans) SampledMsg(msgID uint64) bool {
	h := msgID * 0x9E3779B97F4A7C15
	return sp != nil && h>>48 < sp.threshold
}

// Tracked reports whether f is the tracked flit of a sampled message — the
// head flit of packet 0, the one flit whose transitions are timestamped. It
// is false for every flit when span recording is disabled, which makes it the
// one cheap test call sites put in front of Step.
func (sp *Spans) Tracked(f *types.Flit) bool {
	return sp != nil && f.Head && f.Pkt.ID == 0 && sp.SampledMsg(f.Pkt.Msg.ID)
}

// Records returns the number of finished span records.
func (sp *Spans) Records() uint64 {
	if sp == nil {
		return 0
	}
	return sp.records.Load()
}

// partition switches the recorder into per-shard op buffering across n
// shards. Called once, before the engine runs.
func (sp *Spans) partition(n int) {
	if sp != nil {
		sp.lanes = make([][]spanOp, n)
	}
}

// seal replays the buffered operation lanes in global stamp order — exactly
// the serial application order — and resets them. It must only be called
// while no shard goroutines run (end of run, or a checkpoint barrier); the
// engine's checkpoint barriers partition stamps by time, so sequential seals
// concatenate correctly and the live-span state carried across a seal is the
// serial state at that time.
func (sp *Spans) seal() {
	if sp == nil || sp.lanes == nil {
		return
	}
	mergeByStamp(sp.lanes, func(o *spanOp) sim.Stamp { return o.stamp }, func(o *spanOp) {
		switch o.op {
		case opStart:
			sp.applyStart(o.msg, o.app, o.src, o.dst, o.t)
		case opStep:
			sp.applyStep(o.msg, o.t, o.kind)
		case opFinish:
			// Counted when the op was recorded, so the progress document
			// stays live mid-run.
			sp.applyFinish(o.msg, o.t, o.t2)
		}
	})
	for k := range sp.lanes {
		sp.lanes[k] = sp.lanes[k][:0]
	}
}

// Start opens the span of a sampled message; the network interface calls it
// from SendMessage. The first segment is charged from the message's creation
// time, so app-side queueing before injection is part of the decomposition.
// s is the calling component's simulator, which supplies the shard lane and
// merge stamp under a parallel engine.
func (sp *Spans) Start(s *sim.Simulator, m *types.Message) {
	if sp != nil {
		sp.start(s, m)
	}
}

func (sp *Spans) start(s *sim.Simulator, m *types.Message) {
	if !sp.SampledMsg(m.ID) {
		return
	}
	if sp.lanes != nil {
		k := s.ShardID()
		sp.lanes[k] = append(sp.lanes[k], spanOp{
			stamp: s.CurrentStamp(), op: opStart,
			msg: m.ID, app: m.App, src: m.Src, dst: m.Dst, t: m.CreateTime,
		})
		return
	}
	sp.applyStart(m.ID, m.App, m.Src, m.Dst, m.CreateTime)
}

func (sp *Spans) applyStart(msg uint64, app, src, dst int, createT sim.Tick) {
	var s *msgSpan
	if n := len(sp.free); n > 0 {
		s, sp.free = sp.free[n-1], sp.free[:n-1]
	} else {
		s = &msgSpan{}
	}
	s.rec = SpanRecord{Msg: msg, App: app, Src: src, Dst: dst, PerHop: s.rec.PerHop[:0]}
	s.lastT = createT
	s.hop = 0
	sp.live[msg] = s
}

// Step closes the open segment of a tracked flit's message: the time since
// the previous transition is charged to kind at the current hop. Callers
// check Tracked first, so the disabled path never reaches the call. A
// SpanWire step (channel exit) advances to the next hop.
func (sp *Spans) Step(s *sim.Simulator, now sim.Tick, f *types.Flit, kind SpanKind) {
	if sp == nil {
		return
	}
	if sp.lanes != nil {
		k := s.ShardID()
		sp.lanes[k] = append(sp.lanes[k], spanOp{
			stamp: s.CurrentStamp(), op: opStep,
			msg: f.Pkt.Msg.ID, t: now, kind: kind,
		})
		return
	}
	sp.applyStep(f.Pkt.Msg.ID, now, kind)
}

func (sp *Spans) applyStep(msg uint64, now sim.Tick, kind SpanKind) {
	s := sp.live[msg]
	if s == nil {
		panic(fmt.Sprintf("telemetry: span step %v for message %d without a started span — probe before SendMessage?", kind, msg))
	}
	if now < s.lastT {
		panic(fmt.Sprintf("telemetry: span step %v for message %d goes backwards: now %d, last transition %d", kind, msg, now, s.lastT))
	}
	d := now - s.lastT
	s.lastT = now
	if kind == SpanQueue {
		s.rec.Queue += d
		return
	}
	for len(s.rec.PerHop) <= s.hop {
		s.rec.PerHop = append(s.rec.PerHop, SpanHop{})
	}
	h := &s.rec.PerHop[s.hop]
	switch kind {
	case SpanVCAlloc:
		h.VCAlloc += d
	case SpanSWAlloc:
		h.SWAlloc += d
	case SpanXbar:
		h.Xbar += d
	case SpanOutput:
		h.Output += d
	case SpanWire:
		h.Wire += d
		s.hop++
	default:
		panic(fmt.Sprintf("telemetry: span step with invalid kind %d", kind))
	}
}

// Finish closes a sampled message's span at delivery (the workload calls it
// just before the message returns to the pool): the tail segment — tracked
// flit arrival to last flit delivered — is charged to eject, the exactness
// invariant is asserted, and the record is folded and emitted. Unsampled
// messages return immediately.
func (sp *Spans) Finish(s *sim.Simulator, m *types.Message) {
	if sp != nil {
		sp.finish(s, m)
	}
}

func (sp *Spans) finish(s *sim.Simulator, m *types.Message) {
	if sp.lanes != nil {
		if !sp.SampledMsg(m.ID) {
			return
		}
		k := s.ShardID()
		sp.lanes[k] = append(sp.lanes[k], spanOp{
			stamp: s.CurrentStamp(), op: opFinish,
			msg: m.ID, t: m.ReceiveTime, t2: m.CreateTime,
		})
		sp.records.Add(1)
		return
	}
	if sp.applyFinish(m.ID, m.ReceiveTime, m.CreateTime) {
		sp.records.Add(1)
	}
}

// applyFinish reports whether a span was actually open (unsampled messages
// have none and are ignored).
func (sp *Spans) applyFinish(msg uint64, recvT, createT sim.Tick) bool {
	s := sp.live[msg]
	if s == nil {
		return false
	}
	delete(sp.live, msg)
	if recvT < s.lastT {
		panic(fmt.Sprintf("telemetry: span finish for message %d goes backwards: delivered %d, last transition %d", msg, recvT, s.lastT))
	}
	s.rec.Eject = recvT - s.lastT
	s.rec.E2E = recvT - createT
	s.rec.Hops = len(s.rec.PerHop) - 1
	if total := s.rec.ComponentSum(); total != s.rec.E2E {
		panic(fmt.Sprintf("telemetry: span decomposition of message %d is not exact: components sum to %d, end-to-end latency is %d (%+v)",
			msg, total, s.rec.E2E, s.rec))
	}
	sp.fold(&s.rec)
	sp.emit(&s.rec)
	sp.free = append(sp.free, s)
	return true
}

// fold adds one finished record to the per-hop, per-component registry
// histograms. Metric names are span_<kind>; the component is the traffic
// class (app<N>); the vc label carries the hop index (0 = source interface),
// or -1 for the hop-independent queue/eject/e2e metrics. Zero observations
// are folded too: a hop where a component took no time is exactly what a
// critical-path comparison needs to see.
func (sp *Spans) fold(r *SpanRecord) {
	if sp.reg == nil {
		return
	}
	sp.hist(SpanQueue, r.App, -1).Observe(r.Queue)
	sp.hist(SpanEject, r.App, -1).Observe(r.Eject)
	e2e := sp.e2e[r.App]
	if e2e == nil {
		e2e = sp.reg.Histogram("span_e2e", "app"+strconv.Itoa(r.App), -1)
		sp.e2e[r.App] = e2e
	}
	e2e.Observe(r.E2E)
	for i := range r.PerHop {
		h := &r.PerHop[i]
		sp.hist(SpanWire, r.App, i).Observe(h.Wire)
		if i == 0 {
			continue // the source interface has no router pipeline stages
		}
		sp.hist(SpanVCAlloc, r.App, i).Observe(h.VCAlloc)
		sp.hist(SpanSWAlloc, r.App, i).Observe(h.SWAlloc)
		sp.hist(SpanXbar, r.App, i).Observe(h.Xbar)
		sp.hist(SpanOutput, r.App, i).Observe(h.Output)
	}
}

// hist returns the cached histogram for (kind, app, hop), registering it on
// first use.
func (sp *Spans) hist(kind SpanKind, app, hop int) *Histogram {
	k := spanHistKey{kind, app, hop}
	h := sp.hists[k]
	if h == nil {
		h = sp.reg.Histogram("span_"+kind.String(), "app"+strconv.Itoa(app), hop)
		sp.hists[k] = h
	}
	return h
}

func (sp *Spans) emit(r *SpanRecord) {
	if sp.enc == nil {
		return
	}
	sp.writeHeader()
	if err := sp.enc.Encode(r); err != nil {
		panic(fmt.Sprintf("telemetry: span stream write failed: %v", err))
	}
}

func (sp *Spans) writeHeader() {
	if sp.header {
		return
	}
	sp.header = true
	if err := sp.enc.Encode(SpanHeader{Schema: SpanSchema, Version: SpanSchemaVersion, Sample: sp.fraction}); err != nil {
		panic(fmt.Sprintf("telemetry: span stream write failed: %v", err))
	}
}

// Close flushes and closes the spans stream. An empty stream still gets its
// header so readers can distinguish "no sampled messages" from truncation.
// Messages still live (a stalled run) are dropped — their spans never closed.
func (sp *Spans) Close() error {
	if sp == nil || sp.w == nil {
		return nil
	}
	sp.writeHeader()
	err := sp.w.Flush()
	if sp.c != nil {
		if cerr := sp.c.Close(); err == nil {
			err = cerr
		}
	}
	sp.w = nil
	sp.enc = nil
	return err
}

// ReadSpans parses a spans JSONL stream: it validates the header line
// (schema name and version) and calls fn for each record. A stream written
// by an incompatible schema version is rejected up front.
func ReadSpans(rd io.Reader, fn func(SpanRecord) error) (SpanHeader, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var hdr SpanHeader
	line, headerSeen := 0, false
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if !headerSeen {
			if err := json.Unmarshal(raw, &hdr); err != nil {
				return hdr, fmt.Errorf("telemetry: spans line %d: %w", line, err)
			}
			if hdr.Schema != SpanSchema {
				return hdr, fmt.Errorf("telemetry: not a spans stream: schema %q, want %q", hdr.Schema, SpanSchema)
			}
			if hdr.Version != SpanSchemaVersion {
				return hdr, fmt.Errorf("telemetry: incompatible spans schema version %d (this reader supports %d)", hdr.Version, SpanSchemaVersion)
			}
			headerSeen = true
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return hdr, fmt.Errorf("telemetry: spans line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return hdr, err
		}
	}
	if err := sc.Err(); err != nil {
		return hdr, err
	}
	if !headerSeen {
		return hdr, fmt.Errorf("telemetry: spans stream has no header line")
	}
	return hdr, nil
}
