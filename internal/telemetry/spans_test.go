package telemetry

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/types"
)

// spanMsg builds a 4-flit, 2-packet message whose tracked flit is the head
// flit of packet 0.
func spanMsg(id uint64) *types.Message {
	return types.NewMessage(id, 0, 2, 7, 4, 2)
}

// driveSpan walks one message through a two-hop lifecycle (source interface,
// then one router) with fixed per-stage delays and returns the delivery time.
func driveSpan(sp *Spans, m *types.Message) sim.Tick {
	f := m.Packet(0).Flit(0)
	sp.Start(m)
	t := m.CreateTime
	t += 3
	sp.Step(t, f, SpanQueue) // 3 ticks of source queueing
	t += 4
	sp.Step(t, f, SpanWire) // injection link: hop 0 -> hop 1
	t += 5
	sp.Step(t, f, SpanVCAlloc)
	t += 2
	sp.Step(t, f, SpanSWAlloc)
	t += 1
	sp.Step(t, f, SpanXbar)
	t += 2
	sp.Step(t, f, SpanOutput)
	t += 4
	sp.Step(t, f, SpanWire) // ejection link: hop 1 -> destination
	t += 6                  // reassembly tail
	m.ReceiveTime = t
	sp.Finish(m)
	return t
}

func TestSpanKindStrings(t *testing.T) {
	want := map[SpanKind]string{
		SpanQueue: "queue", SpanVCAlloc: "vc_alloc", SpanSWAlloc: "sw_alloc",
		SpanXbar: "xbar", SpanOutput: "output", SpanWire: "wire", SpanEject: "eject",
		SpanKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("SpanKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestSampledMsgFractionEndpoints(t *testing.T) {
	all := NewSpans(nil, 1.0)
	none := NewSpans(nil, 0)
	clampedHi := NewSpans(nil, 2.5)  // clamps to 1
	clampedLo := NewSpans(nil, -0.5) // clamps to 0
	for id := uint64(0); id < 1000; id++ {
		if !all.SampledMsg(id) || !clampedHi.SampledMsg(id) {
			t.Fatalf("message %d not sampled at fraction 1.0", id)
		}
		if none.SampledMsg(id) || clampedLo.SampledMsg(id) {
			t.Fatalf("message %d sampled at fraction 0", id)
		}
	}
}

func TestSampledMsgFractionIsApproximate(t *testing.T) {
	sp := NewSpans(nil, 0.5)
	hits := 0
	const n = 10000
	for id := uint64(0); id < n; id++ {
		if sp.SampledMsg(id) {
			hits++
		}
	}
	if hits < n*4/10 || hits > n*6/10 {
		t.Fatalf("fraction 0.5 sampled %d of %d messages", hits, n)
	}
}

// trackedFlits returns the flits of m that sp tracks.
func trackedFlits(sp *Spans, m *types.Message) []*types.Flit {
	var tracked []*types.Flit
	for pi := 0; pi < m.NumPackets(); pi++ {
		p := m.Packet(pi)
		for fi := 0; fi < p.Size(); fi++ {
			if f := p.Flit(fi); sp.Tracked(f) {
				tracked = append(tracked, f)
			}
		}
	}
	return tracked
}

// TestTrackedSelectsHeadOfPacketZero: of a sampled two-packet message, only
// packet 0's head flit is tracked, from Start until Finish.
func TestTrackedSelectsHeadOfPacketZero(t *testing.T) {
	sp := NewSpans(nil, 1.0)
	m := spanMsg(1)
	if got := trackedFlits(sp, m); len(got) != 0 {
		t.Fatalf("%d flits tracked before Start", len(got))
	}
	sp.Start(m)
	if got := trackedFlits(sp, m); len(got) != 1 || got[0] != m.Packet(0).Head() {
		t.Fatalf("tracked flits %v, want exactly packet 0's head", got)
	}
	sp.Finish(m)
	if got := trackedFlits(sp, m); len(got) != 0 {
		t.Fatalf("%d flits still tracked after Finish", len(got))
	}
	none := NewSpans(nil, 0)
	none.Start(m)
	if got := trackedFlits(none, m); len(got) != 0 {
		t.Fatal("unsampled message has a tracked flit")
	}
}

// TestRecycledMessageStartsUntracked: a pooled message released with its
// span still open (a stalled run) comes back from the pool untracked, so a
// recycled block never carries a stale slot into its next life.
func TestRecycledMessageStartsUntracked(t *testing.T) {
	sp := NewSpans(nil, 1.0)
	pool := types.NewPool()
	m := pool.NewMessage(1, 0, 2, 7, 4, 2)
	sp.Start(m)
	if !sp.Tracked(m.Packet(0).Head()) {
		t.Fatal("started message is not tracked")
	}
	pool.Release(m)
	again := pool.NewMessage(2, 0, 2, 7, 4, 2)
	if again != m {
		t.Fatal("the pool did not recycle the released message")
	}
	if got := trackedFlits(sp, again); len(got) != 0 {
		t.Fatalf("recycled message has %d tracked flits", len(got))
	}
}

func TestSpanLifecycleExactAndEmitted(t *testing.T) {
	var buf bytes.Buffer
	sp := NewSpans(&buf, 1.0)
	m := spanMsg(1)
	m.CreateTime = 100
	driveSpan(sp, m)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if sp.Records() != 1 {
		t.Fatalf("records = %d, want 1", sp.Records())
	}

	var recs []SpanRecord
	hdr, err := ReadSpans(&buf, func(r SpanRecord) error { recs = append(recs, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != SpanSchema || hdr.Version != SpanSchemaVersion || hdr.Sample != 1.0 {
		t.Fatalf("header = %+v", hdr)
	}
	if len(recs) != 1 {
		t.Fatalf("stream has %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Msg != 1 || r.App != 0 || r.Src != 2 || r.Dst != 7 || r.T0 != 100 {
		t.Fatalf("record identity wrong: %+v", r)
	}
	if r.Queue != 3 || r.Eject != 6 || r.Hops != 1 || len(r.PerHop) != 2 {
		t.Fatalf("record decomposition wrong: %+v", r)
	}
	if h0 := r.PerHop[0]; h0.Wire != 4 || h0.Total() != 4 {
		t.Fatalf("hop 0 should carry only the injection wire: %+v", h0)
	}
	if h1 := r.PerHop[1]; h1.VCAlloc != 5 || h1.SWAlloc != 2 || h1.Xbar != 1 || h1.Output != 2 || h1.Wire != 4 {
		t.Fatalf("hop 1 decomposition wrong: %+v", h1)
	}
	if r.ComponentSum() != r.E2E || r.E2E != 27 {
		t.Fatalf("components sum to %d, e2e %d, want both 27", r.ComponentSum(), r.E2E)
	}
}

func TestSpanFoldsRegistryHistograms(t *testing.T) {
	sp := NewSpans(nil, 1.0)
	sp.reg = newRegistry()
	m := spanMsg(1)
	driveSpan(sp, m)

	checks := []struct {
		name string
		vc   int
		sum  uint64
	}{
		{"span_queue", -1, 3},
		{"span_eject", -1, 6},
		{"span_e2e", -1, 27},
		{"span_wire", 0, 4},
		{"span_wire", 1, 4},
		{"span_vc_alloc", 1, 5},
		{"span_sw_alloc", 1, 2},
		{"span_xbar", 1, 1},
		{"span_output", 1, 2},
	}
	for _, c := range checks {
		h := sp.reg.Histogram(c.name, "app0", c.vc)
		if h.Count() != 1 || h.Sum() != c.sum {
			t.Errorf("%s vc %d: count %d sum %d, want count 1 sum %d", c.name, c.vc, h.Count(), h.Sum(), c.sum)
		}
	}
	// The source-interface hop must not register router pipeline stages.
	if h := sp.reg.Histogram("span_vc_alloc", "app0", 0); h.Count() != 0 {
		t.Error("vc_alloc histogram registered for the source interface hop")
	}
}

func TestSpanStateReuseAcrossMessages(t *testing.T) {
	sp := NewSpans(nil, 1.0)
	for id := uint64(1); id <= 3; id++ {
		m := spanMsg(id)
		m.CreateTime = sim.Tick(id * 50)
		driveSpan(sp, m)
	}
	if sp.Records() != 3 {
		t.Fatalf("records = %d, want 3", sp.Records())
	}
	if open := len(sp.spans) - len(sp.free); open != 0 {
		t.Fatalf("%d spans still open after all messages finished", open)
	}
	if len(sp.spans) != 1 {
		t.Fatalf("slab has %d slots, want 1 (serial reuse)", len(sp.spans))
	}
}

func TestUnsampledMessagesIgnored(t *testing.T) {
	sp := NewSpans(nil, 0)
	m := spanMsg(1)
	sp.Start(m)
	if len(sp.spans) != 0 || sp.Tracked(m.Packet(0).Head()) {
		t.Fatal("unsampled Start left open state")
	}
	sp.Finish(m) // no span started: must be a silent no-op
	if sp.Records() != 0 {
		t.Fatal("unsampled Finish recorded a span")
	}
}

func TestSpanStepPanics(t *testing.T) {
	mustPanicContains(t, "without a started span", func() {
		sp := NewSpans(nil, 1.0)
		m := spanMsg(1)
		sp.Step(5, m.Packet(0).Flit(0), SpanQueue)
	})
	mustPanicContains(t, "goes backwards", func() {
		sp := NewSpans(nil, 1.0)
		m := spanMsg(1)
		m.CreateTime = 100
		sp.Start(m)
		sp.Step(50, m.Packet(0).Flit(0), SpanQueue)
	})
	mustPanicContains(t, "invalid kind", func() {
		sp := NewSpans(nil, 1.0)
		m := spanMsg(1)
		sp.Start(m)
		sp.Step(5, m.Packet(0).Flit(0), SpanEject) // eject is charged by Finish, not Step
	})
	mustPanicContains(t, "goes backwards", func() {
		sp := NewSpans(nil, 1.0)
		m := spanMsg(1)
		sp.Start(m)
		sp.Step(10, m.Packet(0).Flit(0), SpanQueue)
		m.ReceiveTime = 5
		sp.Finish(m)
	})
}

func mustPanicContains(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	fn()
}

func TestCloseWritesHeaderForEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	sp := NewSpans(&buf, 0.25)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, err := ReadSpans(&buf, func(SpanRecord) error { return nil })
	if err != nil {
		t.Fatalf("empty stream must still parse: %v", err)
	}
	if hdr.Sample != 0.25 {
		t.Fatalf("header sample = %v, want 0.25", hdr.Sample)
	}
	if err := sp.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}

func TestReadSpansRejectsGarbageRecord(t *testing.T) {
	in := `{"schema":"supersim-spans","version":2,"sample":1}` + "\n" + `{not json}` + "\n"
	if _, err := ReadSpans(strings.NewReader(in), func(SpanRecord) error { return nil }); err == nil {
		t.Fatal("garbage record line accepted")
	}
	if _, err := ReadSpans(strings.NewReader("{not json}\n"), func(SpanRecord) error { return nil }); err == nil {
		t.Fatal("garbage header line accepted")
	}
}

// TestReadSpansRejectsVersion1: a version 1 stream has no t0, so its records
// cannot be placed on a timeline; there is one decode path, for version 2.
func TestReadSpansRejectsVersion1(t *testing.T) {
	in := `{"schema":"supersim-spans","version":1,"sample":1}` + "\n" +
		`{"msg":1,"app":0,"src":0,"dst":1,"hops":0,"e2e":2,"queue":1,"eject":1,"perhop":[{}]}` + "\n"
	calls := 0
	_, err := ReadSpans(strings.NewReader(in), func(SpanRecord) error { calls++; return nil })
	if err == nil || !strings.Contains(err.Error(), "version 1") || calls != 0 {
		t.Fatalf("version 1 stream: err %v after %d records, want a version error before any", err, calls)
	}
}

func TestReadSpansPropagatesCallbackError(t *testing.T) {
	var buf bytes.Buffer
	sp := NewSpans(&buf, 1.0)
	driveSpan(sp, spanMsg(1))
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	wantErr := false
	_, err := ReadSpans(&buf, func(SpanRecord) error {
		wantErr = true
		return errStop
	})
	if err != errStop || !wantErr {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

var errStop = errorString("stop")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestSpansInterleavedMatchRecords opens, steps and finishes many messages
// in a random interleaving, as a loaded network does, and compares every
// emitted record with one accumulated beside the recorder. Slots are reused
// out of order, so a span that read or cleared another's slot would show as
// a wrong record or a panic, and the slab never holds more slots than spans
// were open at once.
func TestSpansInterleavedMatchRecords(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var buf bytes.Buffer
	sp := NewSpans(&buf, 1.0)
	type ref struct {
		m    *types.Message
		rec  SpanRecord
		last sim.Tick
		hop  int
	}
	var open []*ref
	var want []SpanRecord
	now, next, peak := sim.Tick(0), uint64(1), 0
	kinds := []SpanKind{SpanQueue, SpanVCAlloc, SpanSWAlloc, SpanXbar, SpanOutput, SpanWire}
	for op := 0; op < 20000; op++ {
		now += sim.Tick(rng.IntN(3))
		switch r := rng.IntN(10); {
		case r < 3 || len(open) == 0:
			m := types.NewMessage(next, rng.IntN(3), 1, 2, 1+rng.IntN(6), 2)
			m.CreateTime = now
			sp.Start(m)
			open = append(open, &ref{m: m, last: now,
				rec: SpanRecord{Msg: next, App: int(m.App), Src: 1, Dst: 2, T0: uint64(now)}})
			next++
			peak = max(peak, len(open))
		case r < 9:
			o := open[rng.IntN(len(open))]
			k := kinds[rng.IntN(len(kinds))]
			sp.Step(now, o.m.Packet(0).Head(), k)
			d := now - o.last
			o.last = now
			if k == SpanQueue {
				o.rec.Queue += d
				break
			}
			// A record holds the hops up to the last one charged a stage.
			for len(o.rec.PerHop) <= o.hop {
				o.rec.PerHop = append(o.rec.PerHop, SpanHop{})
			}
			h := &o.rec.PerHop[o.hop]
			switch k {
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
				o.hop++
			}
		default:
			i := rng.IntN(len(open))
			o := open[i]
			open = slices.Delete(open, i, i+1)
			o.m.ReceiveTime = now
			sp.Finish(o.m)
			if trackedFlits(sp, o.m) != nil {
				t.Fatalf("message %d still tracked after Finish", o.rec.Msg)
			}
			o.rec.Eject = now - o.last
			o.rec.E2E = uint64(now) - o.rec.T0
			o.rec.Hops = len(o.rec.PerHop) - 1
			want = append(want, o.rec)
		}
	}
	if len(sp.spans) > peak {
		t.Fatalf("slab grew to %d slots for at most %d open spans", len(sp.spans), peak)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	var got []SpanRecord
	if _, err := ReadSpans(&buf, func(r SpanRecord) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records emitted, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if len(g.PerHop) == 0 && len(w.PerHop) == 0 {
			g.PerHop, w.PerHop = nil, nil // a record of no hop decodes with none
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestSpanFoldMatchesRecords folds records of two sparse apps, one of them
// nine router hops long, and compares every span_* histogram of the registry
// with a direct pass over the records: the set of histograms, their
// registration order, and each one's count and sum.
func TestSpanFoldMatchesRecords(t *testing.T) {
	sp := NewSpans(nil, 1.0)
	sp.reg = newRegistry()
	type key struct {
		name, comp string
		vc         int
	}
	type sums struct{ count, sum uint64 }
	want := map[key]*sums{}
	var order []key
	observe := func(name string, app, vc int, v uint64) {
		k := key{"span_" + name, "app" + strconv.Itoa(app), vc}
		if want[k] == nil {
			want[k] = &sums{}
			order = append(order, k)
		}
		want[k].count++
		want[k].sum += v
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i, app := range []int{3, 0, 3, 3, 0} {
		hops := []int{2, 9, 1, 9, 4}[i]
		r := SpanRecord{App: app, Queue: rng.Uint64N(50), Eject: rng.Uint64N(50), PerHop: make([]SpanHop, hops+1)}
		for h := range r.PerHop {
			r.PerHop[h] = SpanHop{Wire: rng.Uint64N(9)}
			if h > 0 {
				r.PerHop[h] = SpanHop{VCAlloc: rng.Uint64N(9), SWAlloc: rng.Uint64N(9), Xbar: rng.Uint64N(9),
					Output: rng.Uint64N(9), Wire: rng.Uint64N(9)}
			}
		}
		r.E2E = r.ComponentSum()
		sp.fold(&r)

		observe("queue", app, -1, r.Queue)
		observe("eject", app, -1, r.Eject)
		observe("e2e", app, -1, r.E2E)
		for h, ph := range r.PerHop {
			observe("wire", app, h, ph.Wire)
			if h > 0 {
				observe("vc_alloc", app, h, ph.VCAlloc)
				observe("sw_alloc", app, h, ph.SWAlloc)
				observe("xbar", app, h, ph.Xbar)
				observe("output", app, h, ph.Output)
			}
		}
	}
	sp.reg.mu.Lock()
	list := append([]*metric(nil), sp.reg.list...) // registration order
	sp.reg.mu.Unlock()
	if len(list) != len(order) {
		t.Fatalf("registry holds %d span histograms, the records give %d", len(list), len(order))
	}
	for i, m := range list {
		k := key{m.name, m.comp, m.vc}
		if k != order[i] {
			t.Fatalf("histogram %d registered as %v, first used as %v", i, k, order[i])
		}
		if w := want[k]; m.h.Count() != w.count || m.h.Sum() != w.sum {
			t.Errorf("%v: count %d sum %d, want count %d sum %d", k, m.h.Count(), m.h.Sum(), w.count, w.sum)
		}
	}
}

// BenchmarkSpansMessage is the enabled span path per message: Start, the 17
// Steps of a three-router path (queue, the injection wire, then vc_alloc,
// sw_alloc, xbar, output and wire at each router) and Finish, which folds 19
// registry histograms. Message IDs advance as a workload's do.
func BenchmarkSpansMessage(b *testing.B) {
	sp := NewSpans(nil, 1.0)
	sp.reg = newRegistry()
	m := spanMsg(0)
	f := m.Packet(0).Flit(0)
	kinds := []SpanKind{SpanVCAlloc, SpanSWAlloc, SpanXbar, SpanOutput, SpanWire}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ID = uint64(i)
		m.CreateTime = sim.Tick(i)
		t := m.CreateTime
		sp.Start(m)
		t += 2
		sp.Step(t, f, SpanQueue)
		t += 1
		sp.Step(t, f, SpanWire)
		for hop := 0; hop < 3; hop++ {
			for _, k := range kinds {
				t += 2
				sp.Step(t, f, k)
			}
		}
		m.ReceiveTime = t + 3
		sp.Finish(m)
	}
}
