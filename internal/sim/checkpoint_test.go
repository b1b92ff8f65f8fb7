package sim

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
)

func TestEventRecordRoundTrip(t *testing.T) {
	recs := []EventRecord{
		{Tick: 10, Eps: 2, Owner: 3, Oseq: 7, Type: 4, Daemon: true},
		{Tick: 11, Owner: 1, Oseq: 8, Type: -2, HasCtx: true, Ctx: 9},
	}
	data := snaptest.Save(func(c *snapshot.Codec) {
		for i := range recs {
			recs[i].State(c)
		}
	})

	d := snapshot.NewLoader(data)
	got := make([]EventRecord, len(recs))
	for i := range got {
		if got[i].State(d); d.Err() != nil {
			t.Fatal(d.Err())
		}
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	single := snaptest.Save(recs[1].State)
	for _, n := range []int{0, 1, len(single) - 1} {
		var r EventRecord
		if err := snaptest.Load(single[:n], r.State); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}

func TestExportInjectQueueRoundTrip(t *testing.T) {
	// Schedule a mix of plain, context-carrying, and daemon events, export
	// the queue, inject it into an identically built simulator, and require
	// the continuation to execute identically.
	build := func() (*Simulator, *recorder) {
		s := NewSimulator(3)
		return s, &recorder{ComponentBase: NewComponentBase(s, "rec")}
	}
	s, r := build()
	s.Schedule(r, Time{10, 0}, 2, nil)
	s.Schedule(r, Time{5, 1}, 1, 77)
	s.ScheduleDaemon(r, Time{20, 0}, 3, nil)
	recs, err := s.ExportEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("exported %d records, want 3", len(recs))
	}
	SortEventRecords(recs)
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if b.Tick < a.Tick || (b.Tick == a.Tick && b.Eps < a.Eps) {
			t.Fatalf("records not sorted: %+v", recs)
		}
	}

	s2, r2 := build()
	s2.Schedule(r2, Time{1, 0}, 99, nil) // stale build-time event, dropped below
	s2.ResetQueue()
	if s2.Pending() != 0 || s2.PendingNonDaemon() != 0 {
		t.Fatalf("pending %d/%d after ResetQueue", s2.Pending(), s2.PendingNonDaemon())
	}
	for _, rec := range recs {
		s2.InjectEvent(r2, rec)
	}
	if s2.Pending() != 3 || s2.PendingNonDaemon() != 2 {
		t.Fatalf("pending %d/%d after inject, want 3/2", s2.Pending(), s2.PendingNonDaemon())
	}
	s2.SetNow(Time{Tick: 5})
	s2.SetProgress(100, Time{Tick: 4})
	if s2.Executed() != 100 || s2.LastWork() != (Time{Tick: 4}) {
		t.Fatalf("progress %d/%v after SetProgress", s2.Executed(), s2.LastWork())
	}

	s.Run()
	s2.Run()
	if len(r2.typesRun) != len(r.typesRun) {
		t.Fatalf("restored run executed %d events, want %d", len(r2.typesRun), len(r.typesRun))
	}
	for i := range r.typesRun {
		if r2.typesRun[i] != r.typesRun[i] || r2.times[i] != r.times[i] {
			t.Fatalf("restored execution diverged at %d: %v@%v vs %v@%v",
				i, r2.typesRun[i], r2.times[i], r.typesRun[i], r.times[i])
		}
	}
	if s2.Executed() != 100+s.Executed() {
		t.Fatalf("executed %d, want %d", s2.Executed(), 100+s.Executed())
	}
}

func TestExportEventsRejectsUnserializable(t *testing.T) {
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	s.Schedule(r, Time{1, 0}, 0, "not an int")
	if _, err := s.ExportEvents(); err == nil ||
		!strings.Contains(err.Error(), "context") {
		t.Fatalf("string context: err = %v", err)
	}

	// A handler that does not embed ComponentBase is foreign: its events
	// carry no construction-order key and cannot be snapshotted.
	s2 := NewSimulator(1)
	s2.Schedule(foreignHandler{}, Time{1, 0}, 0, nil)
	if _, err := s2.ExportEvents(); err == nil ||
		!strings.Contains(err.Error(), "construction-order key") {
		t.Fatalf("foreign handler: err = %v", err)
	}
}

type foreignHandler struct{}

func (foreignHandler) ProcessEvent(*Event) {}

func TestInjectEventPanics(t *testing.T) {
	s := NewSimulator(1)
	mustPanic(t, func() { s.InjectEvent(nil, EventRecord{}) })
}

func TestSimulatorStateRoundTrip(t *testing.T) {
	build := func() (*Simulator, *rand.Rand, *rand.Rand) {
		s := NewSimulator(11)
		NewComponentBase(s, "a")
		return s, s.DeriveRand("stream_a"), s.DeriveRand("stream_b")
	}
	s, sa, sb := build()
	// Advance every PRNG stream and the scheduling counters past their
	// initial state.
	s.Rand().Uint64()
	sa.Uint64()
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	s.Schedule(r, Time{1, 0}, 0, nil)
	data := snaptest.Save(s.State)

	got, ga, gb := build()
	d := snapshot.NewLoader(data)
	if got.State(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	// Every stream must continue from the saved point, not the seed.
	if got.Rand().Uint64() != s.Rand().Uint64() ||
		ga.Uint64() != sa.Uint64() || gb.Uint64() != sb.Uint64() {
		t.Fatal("restored PRNG streams diverge from the originals")
	}
	if got.Seed() != 11 {
		t.Fatalf("Seed = %d", got.Seed())
	}
}

func TestSimulatorLoadRejectsMismatchedBuild(t *testing.T) {
	s := NewSimulator(1)
	s.DeriveRand("stream_a")
	data := snaptest.Save(s.State)

	if err := snaptest.Load(data, NewSimulator(1).State); err == nil ||
		!strings.Contains(err.Error(), "derived PRNG streams") {
		t.Fatalf("stream count: err = %v", err)
	}
	other := NewSimulator(1)
	other.DeriveRand("stream_z")
	if err := snaptest.Load(data, other.State); err == nil ||
		!strings.Contains(err.Error(), `"stream_a"`) {
		t.Fatalf("stream name: err = %v", err)
	}
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		fresh := NewSimulator(1)
		fresh.DeriveRand("stream_a")
		if err := snaptest.Load(data[:n], fresh.State); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}

func TestComponentOrderRoundTrip(t *testing.T) {
	s := NewSimulator(1)
	ra := &recorder{ComponentBase: NewComponentBase(s, "a")}
	b := NewComponentBase(s, "b")
	if ra.OrderKey() == b.OrderKey() {
		t.Fatal("distinct components share an order key")
	}
	s.Schedule(ra, Time{1, 0}, 0, nil) // bumps the per-handler seq counter
	a := &ra.ComponentBase
	data := snaptest.Save(a.OrderState)

	s2 := NewSimulator(1)
	a2 := NewComponentBase(s2, "a")
	if err := snaptest.Load(data, a2.OrderState); err != nil {
		t.Fatal(err)
	}
	if a2.ord.seq != a.ord.seq {
		t.Fatalf("restored seq %d, want %d", a2.ord.seq, a.ord.seq)
	}
	if !bytes.Equal(snaptest.Save(a2.OrderState), data) {
		t.Fatal("re-saved order state is not byte-identical")
	}

	s3 := NewSimulator(1)
	NewComponentBase(s3, "pad") // shifts the next key
	w := NewComponentBase(s3, "a")
	if err := snaptest.Load(data, w.OrderState); err == nil ||
		!strings.Contains(err.Error(), "construction-order key") {
		t.Fatalf("key mismatch: err = %v", err)
	}
	tc := NewComponentBase(NewSimulator(1), "a")
	if err := snaptest.Load(data[:1], tc.OrderState); err == nil {
		t.Fatal("truncated order state loaded without error")
	}
}

func TestClockAccessors(t *testing.T) {
	c := NewClock(4, 1)
	if c.Period() != 4 || c.Phase() != 1 {
		t.Fatalf("period %d phase %d", c.Period(), c.Phase())
	}
	if c.Cycle(0) != 0 || c.Cycle(9) != 2 {
		t.Fatalf("cycles %d, %d", c.Cycle(0), c.Cycle(9))
	}
}

func TestObserverAttachments(t *testing.T) {
	s := NewSimulator(1)
	v, tl := struct{ x int }{1}, struct{ y int }{2}
	s.SetVerifier(v)
	s.SetTelemetry(tl)
	if s.Verifier() != v || s.Telemetry() != tl {
		t.Fatal("observer accessors do not return the attached values")
	}
}
