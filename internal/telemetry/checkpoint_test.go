package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
	"supersim/internal/types"
)

func populatedRegistry() *Registry {
	r := newRegistry()
	r.Counter("flits_routed", "r0", -1, 2.0).Add(5)
	r.Gauge("vc_occupancy", "r0", 1).Set(-3)
	h := r.Histogram("msg_latency", "r0", -1)
	h.Observe(1)
	h.Observe(1)
	h.Observe(500)
	return r
}

func saveRegistry(r *Registry) []byte { return snaptest.Save(r.State) }

func TestRegistryStateRoundTrip(t *testing.T) {
	data := saveRegistry(populatedRegistry())

	// Restore into a registry where one metric pre-exists (the
	// construction-time case) and the others are created by the load (the
	// dynamically-registered case).
	got := newRegistry()
	pre := got.Counter("flits_routed", "r0", -1, 2.0)
	d := snapshot.NewLoader(data)
	if got.State(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if pre.Load() != 5 {
		t.Fatalf("pre-registered counter = %d, want 5", pre.Load())
	}
	if g := got.Gauge("vc_occupancy", "r0", 1); g.Load() != -3 {
		t.Fatalf("gauge = %d, want -3", g.Load())
	}
	if h := got.Histogram("msg_latency", "r0", -1); h.Count() != 3 || h.Sum() != 502 {
		t.Fatalf("histogram count %d sum %d", h.Count(), h.Sum())
	}
	if !bytes.Equal(saveRegistry(got), data) {
		t.Fatal("re-saved registry state is not byte-identical")
	}
}

func TestRegistryLoadRejectsCorruption(t *testing.T) {
	load := func(r *Registry, fn func(c *snapshot.Codec)) error {
		return snaptest.Load(snaptest.Save(fn), r.State)
	}

	clash := newRegistry()
	clash.Gauge("flits_routed", "r0", -1)
	if err := snaptest.Load(saveRegistry(populatedRegistry()), clash.State); err == nil ||
		!strings.Contains(err.Error(), "in the snapshot") {
		t.Fatalf("kind clash: err = %v", err)
	}

	if err := load(newRegistry(), func(c *snapshot.Codec) {
		snaptest.Put(c.Int, 1)
		snaptest.Put(c.Str, "m")
		snaptest.Put(c.Str, "c")
		snaptest.Put(c.Int, -1)
		snaptest.Put(c.Int, 99) // invalid kind
		snaptest.Put(c.F64, 0)
	}); err == nil || !strings.Contains(err.Error(), "invalid kind") {
		t.Fatalf("invalid kind: err = %v", err)
	}

	if err := load(newRegistry(), func(c *snapshot.Codec) {
		snaptest.Put(c.Int, 1)
		snaptest.Put(c.Str, "m")
		snaptest.Put(c.Str, "c")
		snaptest.Put(c.Int, -1)
		snaptest.Put(c.Int, int(KindHist))
		snaptest.Put(c.F64, 0)
		snaptest.Put(c.Int, 1)
		snaptest.Put(c.Int, histBuckets) // bucket index out of range
		snaptest.Put(c.U64, 1)
	}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bucket index: err = %v", err)
	}

	data := saveRegistry(populatedRegistry())
	for _, n := range []int{1, len(data) / 2, len(data) - 1} {
		if err := snaptest.Load(data[:n], newRegistry().State); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}

// buildTelemetry attaches a hub with a span recorder and a populated
// registry, matching on both sides of a restore.
func buildTelemetry(t *testing.T, withSpans bool) *Telemetry {
	t.Helper()
	s := sim.NewSimulator(1)
	opts := Options{}
	if withSpans {
		opts.Spans = NewSpans(nil, 1.0)
	}
	tl := Attach(s, opts)
	tl.Registry().Counter("flits_routed", "r0", -1, 0).Add(7)
	ForWorkload(s, 2, 4, 1)
	return tl
}

// testBounds bounds the messages the tests' walks define.
var testBounds = types.Bounds{Terminals: 16, Apps: 2}

// codeMessages defines msgs in tab, as the network's walk defines the live
// messages before the hub is coded; a loading walk defines the messages the
// stream holds, and msgs is ignored.
func codeMessages(c *snapshot.Codec, tab *types.MessageTable, msgs []*types.Message) {
	n := c.Len(len(msgs))
	for i := 0; i < n && c.Err() == nil; i++ {
		var p *types.Packet
		if !c.Loading() {
			p = msgs[i].Packet(0)
		}
		tab.Packet(c, &p)
	}
}

// walk codes a hub as the simulation's walk does: its simulator, the live
// messages msgs, then the hub. The walk's message table is left in *tab when
// tab is not nil.
func walk(tl *Telemetry, msgs []*types.Message, tab **types.MessageTable) func(*snapshot.Codec) {
	return func(c *snapshot.Codec) {
		tl.Sim().State(c)
		table := types.NewMessageTable(nil, testBounds)
		codeMessages(c, table, msgs)
		if tab != nil {
			*tab = table
		}
		tl.State(c, table)
	}
}

func saveTelemetry(tl *Telemetry, msgs ...*types.Message) []byte {
	return snaptest.Save(walk(tl, msgs, nil))
}

// TestTelemetryStateRoundTrip saves a hub with two open spans, one of them
// on a two-packet message, restores it, and requires the spans to be linked
// to the restored messages' tracked flits: the same flits are tracked, the
// re-saved bytes are identical, and the restored span finishes exactly.
func TestTelemetryStateRoundTrip(t *testing.T) {
	tl := buildTelemetry(t, true)
	tl.SetPhase("generating")
	tl.first = false
	sp := tl.Spans()
	m7 := types.NewMessage(7, 1, 2, 3, 4, 2)
	m7.CreateTime = 31
	sp.Start(m7)
	f7 := m7.Packet(0).Head()
	for _, st := range []struct {
		at   sim.Tick
		kind SpanKind
	}{{35, SpanQueue}, {36, SpanVCAlloc}, {38, SpanSWAlloc}, {41, SpanXbar}, {45, SpanOutput}, {50, SpanWire}, {53, SpanVCAlloc}} {
		sp.Step(st.at, f7, st.kind)
	}
	m3 := types.NewMessage(3, 0, 9, 0, 1, 1)
	m3.CreateTime = 41
	sp.Start(m3)
	// Message 3's current hop is charged, with 0 ticks: it is still a hop of
	// the record.
	sp.Step(41, m3.Packet(0).Head(), SpanWire)
	sp.Step(41, m3.Packet(0).Head(), SpanVCAlloc)
	m9 := types.NewMessage(9, 0, 4, 5, 1, 1) // live, with no open span
	sp.records.Store(12)
	data := saveTelemetry(tl, m9, m7, m3)

	got := buildTelemetry(t, true)
	var tab *types.MessageTable
	d := snapshot.NewLoader(data)
	if walk(got, nil, &tab)(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.phase != "generating" || got.first {
		t.Fatalf("phase %q first %v after restore", got.phase, got.first)
	}
	gsp := got.Spans()
	if open := len(gsp.spans) - len(gsp.free); open != 2 || gsp.Records() != 12 {
		t.Fatalf("restored spans: %d open, %d records", open, gsp.Records())
	}
	r7, r3, r9 := tab.Message(7), tab.Message(3), tab.Message(9)
	tracked := func(m *types.Message) (n int) {
		for i := 0; i < m.NumPackets(); i++ {
			for j := 0; j < m.Packet(i).Size(); j++ {
				if gsp.Tracked(m.Packet(i).Flit(j)) {
					n++
				}
			}
		}
		return n
	}
	if tracked(r7) != 1 || !gsp.Tracked(r7.Packet(0).Head()) || tracked(r3) != 1 || tracked(r9) != 0 {
		t.Fatalf("restored tracked flits: message 7 %d, 3 %d, 9 %d; want 1, 1, 0 (packet 0's head)",
			tracked(r7), tracked(r3), tracked(r9))
	}
	s7 := &gsp.spans[r7.Packet(0).Head().Span()-1]
	if s7.rec.Msg != 7 || s7.hop != 1 || s7.lastT != 53 || len(s7.rec.PerHop) != 2 ||
		s7.rec.PerHop[0] != (SpanHop{VCAlloc: 1, SWAlloc: 2, Xbar: 3, Output: 4, Wire: 5}) ||
		s7.rec.PerHop[1] != (SpanHop{VCAlloc: 3}) {
		t.Fatalf("restored span 7: %+v", s7)
	}
	if s3 := &gsp.spans[r3.Packet(0).Head().Span()-1]; s3.hop != 1 || len(s3.rec.PerHop) != 2 {
		t.Fatalf("restored span 3: %+v", s3)
	}
	if !bytes.Equal(saveTelemetry(got, r9, r7, r3), data) {
		t.Fatal("re-saved telemetry state is not byte-identical")
	}
	r7.ReceiveTime = 60
	gsp.Finish(r7)
	if gsp.Records() != 13 || tracked(r7) != 0 {
		t.Fatalf("after finishing the restored span: %d records, %d tracked flits", gsp.Records(), tracked(r7))
	}
	if rec := s7.rec; rec.Hops != 1 || rec.PerHop[1] != (SpanHop{VCAlloc: 3}) || rec.Eject != 7 || rec.E2E != 29 {
		t.Fatalf("finished restored span 7: %+v", rec)
	}
}

// TestTelemetrySaveRejectsSpanOfUndefinedMessage: a span whose message the
// walk does not define could not be linked by a restore, so saving fails.
func TestTelemetrySaveRejectsSpanOfUndefinedMessage(t *testing.T) {
	tl := buildTelemetry(t, true)
	m := types.NewMessage(4, 0, 1, 2, 1, 1)
	tl.Spans().Start(m)
	c := snapshot.NewSaver()
	walk(tl, nil, nil)(c)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "open span for message 4, which the walk did not define") {
		t.Fatalf("err = %v, want an undefined-message error", err)
	}
}

func TestTelemetryStateRoundTripWithoutSpans(t *testing.T) {
	tl := buildTelemetry(t, false)
	data := saveTelemetry(tl)
	got := buildTelemetry(t, false)
	if err := snaptest.Load(data, walk(got, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveTelemetry(got), data) {
		t.Fatal("re-saved telemetry state is not byte-identical")
	}
}

func TestTelemetryLoadRejectsSpansMismatch(t *testing.T) {
	data := saveTelemetry(buildTelemetry(t, true))
	got := buildTelemetry(t, false)
	if err := snaptest.Load(data, walk(got, nil, nil)); err == nil ||
		!strings.Contains(err.Error(), "spans state") {
		t.Fatalf("err = %v, want spans mismatch", err)
	}
}

// putOpenSpan writes one open span whose record holds hops empty hops, as
// Spans.state codes it.
func putOpenSpan(c *snapshot.Codec, msg uint64, app, hops, hop int) {
	snaptest.Put(c.U64, msg)
	snaptest.Put(c.Int, app)
	snaptest.Put(c.Int, 1)
	snaptest.Put(c.Int, 2)
	snaptest.Put(c.U64, 3)
	snaptest.Put(c.Int, hops)
	for range 5 * hops {
		snaptest.Put(c.U64, 0)
	}
	snaptest.Put(c.U64, 10)
	snaptest.Put(c.Int, hop)
}

// spansStream writes a walk's live messages ids and then a span recorder's
// state: the open spans that spans writes, and no finished records.
func spansStream(ids []uint64, spans func(c *snapshot.Codec)) []byte {
	return snaptest.Save(func(c *snapshot.Codec) {
		msgs := make([]*types.Message, len(ids))
		for i, id := range ids {
			msgs[i] = types.NewMessage(id, 0, 1, 2, 1, 1)
		}
		codeMessages(c, types.NewMessageTable(nil, testBounds), msgs)
		spans(c)
		snaptest.Put(c.U64, 0)
	})
}

// loadSpans loads a spansStream into a fresh recorder of a two-app workload.
func loadSpans(data []byte) error {
	sp := NewSpans(nil, 1.0)
	return snaptest.Load(data, func(c *snapshot.Codec) {
		tab := types.NewMessageTable(nil, testBounds)
		codeMessages(c, tab, nil)
		sp.state(c, 2, tab)
	})
}

func TestSpansLoadRejectsDuplicate(t *testing.T) {
	dup := spansStream([]uint64{5}, func(c *snapshot.Codec) {
		snaptest.Put(c.Int, 2)
		for i := 0; i < 2; i++ { // two open spans for the same message ID
			putOpenSpan(c, 5, 0, 0, 0)
		}
	})
	if err := loadSpans(dup); err == nil || !strings.Contains(err.Error(), "duplicate open span for message 5") {
		t.Fatalf("err = %v, want duplicate-span error", err)
	}
}

// TestSpansLoadRejectsUndefinedMessage: an open span is linked to its
// message's tracked flit, so a span for a message the walk did not define
// must not load.
func TestSpansLoadRejectsUndefinedMessage(t *testing.T) {
	data := spansStream([]uint64{5}, func(c *snapshot.Codec) {
		snaptest.Put(c.Int, 1)
		putOpenSpan(c, 6, 0, 0, 0)
	})
	if err := loadSpans(data); err == nil || !strings.Contains(err.Error(), "open span for message 6, which the walk did not define") {
		t.Fatalf("err = %v, want an undefined-message error", err)
	}
}

// An open span's app indexes the histogram table and its hop the per-hop
// record, so a snapshot carrying either out of range must not load.
func TestSpansLoadRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		app, hops, hop int
		want           string
	}{
		{2, 0, 0, "span app 2 out of range"},
		{-1, 0, 0, "span app -1 out of range"},
		{0, 0, 1, "span hop 1 out of range"}, // one past an empty record
		{0, 0, -1, "span hop -1 out of range"},
	} {
		data := spansStream([]uint64{5}, func(c *snapshot.Codec) {
			snaptest.Put(c.Int, 1)
			putOpenSpan(c, 5, tc.app, tc.hops, tc.hop)
		})
		if err := loadSpans(data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("app %d hops %d hop %d: err = %v, want %q", tc.app, tc.hops, tc.hop, err, tc.want)
		}
	}
}

func TestTelemetryLoadRejectsTruncation(t *testing.T) {
	data := saveTelemetry(buildTelemetry(t, true))
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		got := buildTelemetry(t, true)
		if err := snaptest.Load(data[:n], walk(got, nil, nil)); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
