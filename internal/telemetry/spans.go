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
// the time it spent in every pipeline stage of every hop. One tracked flit
// per message (the head flit of packet 0) is timestamped at each lifecycle
// transition, and the time since the previous transition is charged to
// exactly one span kind. Because every tick between message creation and
// message delivery is charged somewhere, the decomposition is exact by
// construction: Finish asserts that the components sum to the end-to-end
// latency and panics on any unattributed tick, so a missing or misplaced
// probe cannot produce silently wrong attributions.
//
// Sampling is a multiplicative hash of the message ID against a fixed
// threshold (never the simulation PRNG), so span recording is
// observation-only and all transitions of a message are either all recorded
// or all skipped. Each finished message is folded online into per-hop,
// per-component registry histograms (metric span_<kind>, component app<N>, vc
// field = hop index) — these flow into the telemetry JSONL snapshot stream
// and the Prometheus exposition — and optionally emitted as one JSONL record
// for offline analysis with ssparse -spans (a report, or with -chrome a
// trace-event timeline) and ssplot -plot breakdown.

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
	SpanSchemaVersion = 2
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
// Queue + Eject + sum over PerHop of every component == E2E. T0 is the
// message's creation tick, where the decomposition starts.
type SpanRecord struct {
	Msg    uint64    `json:"msg"`
	App    int       `json:"app"`
	Src    int       `json:"src"`
	Dst    int       `json:"dst"`
	Hops   int       `json:"hops"` // router hops = len(PerHop)-1
	T0     uint64    `json:"t0"`
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
// built, the tick of the last recorded transition, the current hop index, and
// the tracked flit, which holds the span's slot plus one. A slot whose head
// is nil is free; its PerHop array is kept for the next span to reuse.
type msgSpan struct {
	rec   SpanRecord
	lastT sim.Tick
	hop   int
	head  *types.Flit
}

// Span histogram table: an app's row of histograms holds, at index
// (hop+1)*spanKinds + kind, the span_<kind> histogram of that hop; the hop -1
// row holds the hop-independent queue and eject, and span_e2e in the slot no
// SpanKind uses.
const (
	spanKinds = 8
	spanE2E   = SpanKind(spanKinds - 1)
)

// Spans is the per-simulation span recorder. Create it with NewSpans, hand it
// to telemetry.Attach via Options.Spans, and components discover it with
// SpansFor. A nil *Spans is the disabled recorder: it samples nothing and
// every method is a no-op, so components call it unguarded. All recording
// methods run on the simulation thread; only the Records counter is read
// concurrently (progress document).
type Spans struct {
	threshold uint64 // sample iff top 16 hash bits < threshold
	fraction  float64
	reg       *Registry // set by Attach; nil folds nothing
	// The JSONL output stream; a restored run writes its own.
	w      *bufio.Writer
	c      io.Closer
	enc    *json.Encoder
	header bool

	// The open spans: a slab indexed by the slot that each tracked flit
	// carries, and the free slots in it.
	spans   []msgSpan
	free    []int32
	hists   [][]*Histogram // [app][(hop+1)*spanKinds + kind]; rebuilt lazily against the restored registry
	records atomic.Uint64
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

// SampledMsg reports whether the message with the given ID is recorded. The
// decision is a pure function of the ID, so every probe point agrees without
// coordination.
func (sp *Spans) SampledMsg(msgID uint64) bool {
	h := msgID * 0x9E3779B97F4A7C15
	return sp != nil && h>>48 < sp.threshold
}

// Tracked reports whether f is the tracked flit of a message with an open
// span — the head flit of packet 0 of a sampled message, the one flit whose
// transitions are timestamped. Start marks it and Finish unmarks it, so the
// test reads only the flit. It is false for every flit when span recording
// is disabled, which makes it the one cheap test call sites put in front of
// Step.
func (sp *Spans) Tracked(f *types.Flit) bool {
	return sp != nil && f.Span() != 0
}

// Records returns the number of finished span records.
func (sp *Spans) Records() uint64 {
	if sp == nil {
		return 0
	}
	return sp.records.Load()
}

// Start opens the span of a sampled message; the network interface calls it
// from SendMessage. The first segment is charged from the message's creation
// time, so app-side queueing before injection is part of the decomposition.
func (sp *Spans) Start(m *types.Message) {
	if sp != nil {
		sp.start(m)
	}
}

func (sp *Spans) start(m *types.Message) {
	if !sp.SampledMsg(m.ID) {
		return
	}
	f := m.Packet(0).Head()
	i := f.Span() - 1
	if i < 0 {
		i = sp.alloc()
		f.SetSpan(i + 1)
	}
	s := &sp.spans[i]
	s.rec = SpanRecord{Msg: m.ID, App: int(m.App), Src: int(m.Src), Dst: m.Dst(), PerHop: s.rec.PerHop[:0]}
	s.lastT = m.CreateTime
	s.hop = 0
	s.head = f
}

// alloc returns a free slot of the slab, growing it when none is free.
func (sp *Spans) alloc() int32 {
	if n := len(sp.free); n > 0 {
		i := sp.free[n-1]
		sp.free = sp.free[:n-1]
		return i
	}
	sp.spans = append(sp.spans, msgSpan{})
	return int32(len(sp.spans) - 1)
}

// Step closes the open segment of a tracked flit's message: the time since
// the previous transition is charged to kind at the current hop. Callers
// check Tracked first, so the disabled path never reaches the call. A
// SpanWire step (channel exit) advances to the next hop.
func (sp *Spans) Step(now sim.Tick, f *types.Flit, kind SpanKind) {
	if sp != nil {
		sp.step(f, now, kind)
	}
}

func (sp *Spans) step(f *types.Flit, now sim.Tick, kind SpanKind) {
	i := f.Span() - 1
	if i < 0 {
		panic(fmt.Sprintf("telemetry: span step %v for message %d without a started span — probe before SendMessage?", kind, f.Pkt.Msg.ID))
	}
	s := &sp.spans[i]
	if now < s.lastT {
		panic(fmt.Sprintf("telemetry: span step %v for message %d goes backwards: now %d, last transition %d", kind, s.rec.Msg, now, s.lastT))
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
// invariant is asserted, and the record is folded and emitted. The tracked
// flit stops being tracked. Unsampled messages return immediately.
func (sp *Spans) Finish(m *types.Message) {
	if sp != nil && sp.finish(m) {
		sp.records.Add(1)
	}
}

// finish reports whether a span was actually open (unsampled messages
// have none and are ignored).
func (sp *Spans) finish(m *types.Message) bool {
	f := m.Packet(0).Head()
	i := f.Span() - 1
	if i < 0 {
		return false
	}
	s := &sp.spans[i]
	recvT, createT := m.ReceiveTime, m.CreateTime
	if recvT < s.lastT {
		panic(fmt.Sprintf("telemetry: span finish for message %d goes backwards: delivered %d, last transition %d", s.rec.Msg, recvT, s.lastT))
	}
	s.rec.Eject = recvT - s.lastT
	s.rec.T0 = uint64(createT)
	s.rec.E2E = recvT - createT
	s.rec.Hops = len(s.rec.PerHop) - 1
	if total := s.rec.ComponentSum(); total != s.rec.E2E {
		panic(fmt.Sprintf("telemetry: span decomposition of message %d is not exact: components sum to %d, end-to-end latency is %d (%+v)",
			s.rec.Msg, total, s.rec.E2E, s.rec))
	}
	sp.fold(&s.rec)
	sp.emit(&s.rec)
	f.SetSpan(0)
	s.head = nil
	sp.free = append(sp.free, i)
	return true
}

// fold adds one finished record to the per-hop, per-component registry
// histograms. Metric names are span_<kind>; the component is the traffic
// class (app<N>); the vc label carries the hop index (0 = source interface),
// or -1 for the hop-independent queue/eject/e2e metrics. Zero observations
// are folded too: a hop where a component took no time is exactly what a
// critical-path comparison needs to see.
//
// The record's observations are folded under one hold of the registry's
// histogram lock.
func (sp *Spans) fold(r *SpanRecord) {
	if sp.reg == nil {
		return
	}
	sp.reg.hmu.Lock()
	defer sp.reg.hmu.Unlock()
	sp.hist(r.App, -1, SpanQueue).observe(r.Queue)
	sp.hist(r.App, -1, SpanEject).observe(r.Eject)
	sp.hist(r.App, -1, spanE2E).observe(r.E2E)
	for i := range r.PerHop {
		h := &r.PerHop[i]
		sp.hist(r.App, i, SpanWire).observe(h.Wire)
		if i == 0 {
			continue // the source interface has no router pipeline stages
		}
		sp.hist(r.App, i, SpanVCAlloc).observe(h.VCAlloc)
		sp.hist(r.App, i, SpanSWAlloc).observe(h.SWAlloc)
		sp.hist(r.App, i, SpanXbar).observe(h.Xbar)
		sp.hist(r.App, i, SpanOutput).observe(h.Output)
	}
}

// hist returns the values of the histogram of (app, hop, kind). The caller
// holds the registry's histogram lock.
func (sp *Spans) hist(app, hop int, kind SpanKind) *histValues {
	i := (hop+1)*spanKinds + int(kind)
	if uint(app) < uint(len(sp.hists)) {
		if row := sp.hists[app]; i < len(row) && row[i] != nil {
			return &row[i].v
		}
	}
	return &sp.register(app, hop, kind).v
}

// register creates the histogram of (app, hop, kind) on its first
// observation, growing the table to hold it.
func (sp *Spans) register(app, hop int, kind SpanKind) *Histogram {
	if len(sp.hists) <= app {
		sp.hists = append(sp.hists, make([][]*Histogram, app+1-len(sp.hists))...)
	}
	i := (hop+1)*spanKinds + int(kind)
	if row := sp.hists[app]; len(row) <= i {
		sp.hists[app] = append(row, make([]*Histogram, (hop+2)*spanKinds-len(row))...)
	}
	name := "span_e2e"
	if kind != spanE2E {
		name = "span_" + kind.String()
	}
	h := sp.reg.Histogram(name, "app"+strconv.Itoa(app), hop)
	sp.hists[app][i] = h
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
// by an incompatible schema version is rejected up front, and a record whose
// components do not sum to its end-to-end latency is an error, so a corrupted
// or hand-edited stream fails loudly in every reader.
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
		if sum := rec.ComponentSum(); sum != rec.E2E {
			return hdr, fmt.Errorf("telemetry: spans line %d: record for message %d is not exact: components sum to %d, e2e is %d",
				line, rec.Msg, sum, rec.E2E)
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
