package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
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

// walk codes a hub after its simulator, as the simulation's walk does.
func walk(tl *Telemetry) func(*snapshot.Codec) {
	return func(c *snapshot.Codec) {
		tl.Sim().State(c)
		tl.State(c)
	}
}

func saveTelemetry(tl *Telemetry) []byte { return snaptest.Save(walk(tl)) }

func TestTelemetryStateRoundTrip(t *testing.T) {
	tl := buildTelemetry(t, true)
	tl.SetPhase("generating")
	tl.first = false
	sp := tl.Spans()
	sp.live.put(7, &msgSpan{
		rec: SpanRecord{Msg: 7, App: 1, Src: 2, Dst: 3, Queue: 4,
			PerHop: []SpanHop{{VCAlloc: 1, SWAlloc: 2, Xbar: 3, Output: 4, Wire: 5}}},
		lastT: 50, hop: 1,
	})
	sp.live.put(3, &msgSpan{rec: SpanRecord{Msg: 3, App: 0, Src: 9, Dst: 0}, lastT: 41})
	sp.records.Store(12)
	data := saveTelemetry(tl)

	got := buildTelemetry(t, true)
	d := snapshot.NewLoader(data)
	if walk(got)(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.phase != "generating" || got.first {
		t.Fatalf("phase %q first %v after restore", got.phase, got.first)
	}
	gsp := got.Spans()
	if gsp.live.n != 2 || gsp.Records() != 12 {
		t.Fatalf("restored spans: %d live, %d records", gsp.live.n, gsp.Records())
	}
	if s7 := gsp.live.get(7); s7 == nil || s7.hop != 1 || s7.lastT != 50 || len(s7.rec.PerHop) != 1 ||
		s7.rec.PerHop[0].Wire != 5 {
		t.Fatalf("restored span 7: %+v", s7)
	}
	if !bytes.Equal(saveTelemetry(got), data) {
		t.Fatal("re-saved telemetry state is not byte-identical")
	}
}

func TestTelemetryStateRoundTripWithoutSpans(t *testing.T) {
	tl := buildTelemetry(t, false)
	data := saveTelemetry(tl)
	got := buildTelemetry(t, false)
	if err := snaptest.Load(data, walk(got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveTelemetry(got), data) {
		t.Fatal("re-saved telemetry state is not byte-identical")
	}
}

func TestTelemetryLoadRejectsSpansMismatch(t *testing.T) {
	data := saveTelemetry(buildTelemetry(t, true))
	got := buildTelemetry(t, false)
	if err := snaptest.Load(data, walk(got)); err == nil ||
		!strings.Contains(err.Error(), "spans state") {
		t.Fatalf("err = %v, want spans mismatch", err)
	}
}

// putOpenSpan writes one open span with no hops, as Spans.state codes it.
func putOpenSpan(c *snapshot.Codec, msg uint64, app, hop int) {
	snaptest.Put(c.U64, msg)
	snaptest.Put(c.Int, app)
	snaptest.Put(c.Int, 1)
	snaptest.Put(c.Int, 2)
	snaptest.Put(c.U64, 3)
	snaptest.Put(c.Int, 0) // no hops
	snaptest.Put(c.U64, 10)
	snaptest.Put(c.Int, hop)
}

// loadSpans loads a spans stream into a fresh recorder of a two-app workload.
func loadSpans(data []byte) error {
	sp := NewSpans(nil, 1.0)
	return snaptest.Load(data, func(c *snapshot.Codec) { sp.state(c, 2) })
}

func TestSpansLoadRejectsDuplicate(t *testing.T) {
	dup := snaptest.Save(func(c *snapshot.Codec) {
		snaptest.Put(c.Int, 2)
		for i := 0; i < 2; i++ { // two open spans for the same message ID
			putOpenSpan(c, 5, 0, 0)
		}
		snaptest.Put(c.U64, 0)
	})
	if err := loadSpans(dup); err == nil || !strings.Contains(err.Error(), "duplicate open span") {
		t.Fatalf("err = %v, want duplicate-span error", err)
	}
}

// An open span's app indexes the histogram table and its hop the per-hop
// record, so a snapshot carrying either out of range must not load.
func TestSpansLoadRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		app, hop int
		want     string
	}{
		{2, 0, "span app 2 out of range"},
		{-1, 0, "span app -1 out of range"},
		{0, 1, "span hop 1 out of range"}, // one past an empty record
		{0, -1, "span hop -1 out of range"},
	} {
		data := snaptest.Save(func(c *snapshot.Codec) {
			snaptest.Put(c.Int, 1)
			putOpenSpan(c, 5, tc.app, tc.hop)
			snaptest.Put(c.U64, 0)
		})
		if err := loadSpans(data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("app %d hop %d: err = %v, want %q", tc.app, tc.hop, err, tc.want)
		}
	}
}

func TestTelemetryLoadRejectsTruncation(t *testing.T) {
	data := saveTelemetry(buildTelemetry(t, true))
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		got := buildTelemetry(t, true)
		if err := snaptest.Load(data[:n], walk(got)); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
