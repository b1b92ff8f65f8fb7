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
		{Tick: 11, Owner: 1, Oseq: 8, Type: -2},
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
	// Schedule a mix of plain and daemon events, export the queue, inject
	// it into an identically built simulator, and require the continuation
	// to execute identically.
	build := func() (*Simulator, *recorder) {
		s := NewSimulator(3)
		return s, &recorder{ComponentBase: NewComponentBase(s, "rec")}
	}
	s, r := build()
	s.Schedule(r, Time{10, 0}, 2, nil)
	s.Schedule(r, Time{5, 1}, 1, nil)
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
	for range recs {
		// Stale build-time events, dropped below. They also bring the
		// schedule counter to where the exported events' oseqs reach, as
		// restoring the component's OrderState does.
		s2.Schedule(r2, Time{1, 0}, 99, nil)
	}
	s2.ResetQueue()
	if s2.Pending() != 0 || s2.PendingNonDaemon() != 0 {
		t.Fatalf("pending %d/%d after ResetQueue", s2.Pending(), s2.PendingNonDaemon())
	}
	for _, rec := range recs {
		if err := s2.InjectEvent(r2, rec); err != nil {
			t.Fatal(err)
		}
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

// TestExportEventsRejectsUnserializable pins that a record carries no
// context: an event scheduled with any, an int included, is refused.
func TestExportEventsRejectsUnserializable(t *testing.T) {
	for _, ctx := range []any{7, "a string"} {
		s := NewSimulator(1)
		r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
		s.Schedule(r, Time{1, 0}, 0, nil)
		s.Schedule(r, Time{2, 0}, 0, ctx)
		if _, err := s.ExportEvents(); err == nil || !strings.Contains(err.Error(), "context") {
			t.Fatalf("context %T: err = %v", ctx, err)
		}
	}
}

// TestInjectEventRefusesOutOfOrder pins InjectEvent's input check: a queue
// that ResetQueue emptied takes records in strictly increasing queue order,
// each within its handler's schedule count, and nothing once anything else
// has entered the queue or the simulation has run. A refused record leaves
// the queue as it was.
func TestInjectEventRefusesOutOfOrder(t *testing.T) {
	s := NewSimulator(1)
	a := &recorder{ComponentBase: NewComponentBase(s, "a")}
	b := &recorder{ComponentBase: NewComponentBase(s, "b")}
	for range 3 {
		s.Schedule(a, Time{1, 0}, 0, nil)
		s.Schedule(b, Time{1, 0}, 0, nil)
	}
	s.ResetQueue()
	rec := func(h *recorder, tick Tick, eps Epsilon, oseq uint64) EventRecord {
		return EventRecord{Tick: tick, Eps: eps, Owner: h.ord.key, Oseq: oseq}
	}
	inject := func(h *recorder, r EventRecord, want string) {
		t.Helper()
		n := s.Pending()
		err := s.InjectEvent(h, r)
		switch {
		case want == "" && err != nil:
			t.Fatalf("%+v: %v", r, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Fatalf("%+v: err = %v, want substring %q", r, err, want)
		case want != "" && s.Pending() != n:
			t.Fatalf("%+v: a refused record changed Pending from %d to %d", r, n, s.Pending())
		}
	}
	inject(a, rec(a, 5, 0, 2), "")
	inject(a, rec(a, 5, 0, 1), "does not sort after") // same owner, earlier oseq
	inject(a, rec(a, 5, 0, 2), "does not sort after") // the same key again
	inject(a, rec(a, 4, 9, 3), "does not sort after") // an earlier timestamp
	inject(a, rec(a, 5, 0, 4), "past its handler")    // beyond a's 3 schedules
	inject(b, rec(b, 5, 0, 1), "")                    // a later owner
	inject(a, rec(a, 5, 0, 3), "does not sort after") // an earlier owner
	inject(a, rec(a, 5, 1, 1), "")                    // a later epsilon
	s.Schedule(b, Time{6, 0}, 0, nil)
	inject(a, rec(a, 7, 0, 3), "since ResetQueue")
	s.ResetQueue()
	inject(a, rec(a, 7, 0, 3), "")
	s.RunUntil(2)
	inject(a, rec(a, 8, 0, 3), "since ResetQueue")
}

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
	// Advance a PRNG stream and the scheduling counters past their initial
	// state.
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
	if ga.Uint64() != sa.Uint64() || gb.Uint64() != sb.Uint64() {
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
	if ra.ord.key == b.ord.key {
		t.Fatal("distinct components share an order key")
	}
	s.Schedule(ra, Time{1, 0}, 0, nil) // bumps the per-handler seq counter
	// walk codes a simulator and one component, as a snapshot's walk does.
	walk := func(r *recorder) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) {
			r.sim.State(c)
			r.OrderState(c, r)
		}
	}
	data := snaptest.Save(walk(ra))

	s2 := NewSimulator(1)
	a2 := &recorder{ComponentBase: NewComponentBase(s2, "a")}
	if err := snaptest.Load(data, walk(a2)); err != nil {
		t.Fatal(err)
	}
	if a2.ord.seq != ra.ord.seq {
		t.Fatalf("restored seq %d, want %d", a2.ord.seq, ra.ord.seq)
	}
	if h, ok := s2.Owner(a2.ord.key); !ok || h != Handler(a2) {
		t.Fatalf("loaded walk's owner of key %d = %v, %v; want the component", a2.ord.key, h, ok)
	}
	if !bytes.Equal(snaptest.Save(walk(a2)), data) {
		t.Fatal("re-saved order state is not byte-identical")
	}

	s3 := NewSimulator(1)
	NewComponentBase(s3, "pad") // shifts the next key
	w := &recorder{ComponentBase: NewComponentBase(s3, "a")}
	if err := snaptest.Load(data, walk(w)); err == nil ||
		!strings.Contains(err.Error(), "construction-order key") {
		t.Fatalf("key mismatch: err = %v", err)
	}
	tc := &recorder{ComponentBase: NewComponentBase(NewSimulator(1), "a")}
	if err := snaptest.Load(data[:1], walk(tc)); err == nil {
		t.Fatal("truncated order state loaded without error")
	}
}

// TestWalkOwnerTable pins the owner table a walk builds: State empties it,
// OrderState enters each component's handler once, and a component coded
// twice, or coded as some other handler, fails the walk.
func TestWalkOwnerTable(t *testing.T) {
	s := NewSimulator(1)
	a := &recorder{ComponentBase: NewComponentBase(s, "a")}
	b := &recorder{ComponentBase: NewComponentBase(s, "b")}
	if _, ok := s.Owner(a.ord.key); ok {
		t.Fatal("a component is an owner before any walk coded it")
	}
	walk := func(fn func(c *snapshot.Codec)) error {
		c := snapshot.NewSaver()
		s.State(c)
		fn(c)
		return c.Err()
	}
	if err := walk(func(c *snapshot.Codec) { a.OrderState(c, a); b.OrderState(c, b) }); err != nil {
		t.Fatal(err)
	}
	if h, ok := s.Owner(b.ord.key); !ok || h != Handler(b) {
		t.Fatalf("owner of b's key = %v, %v", h, ok)
	}
	// The next walk starts from an empty table.
	if err := walk(func(c *snapshot.Codec) { a.OrderState(c, a) }); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Owner(b.ord.key); ok {
		t.Fatal("an owner outlived the walk that coded it")
	}
	for _, tc := range []struct {
		name string
		fn   func(c *snapshot.Codec)
		want string
	}{
		{"coded twice", func(c *snapshot.Codec) { a.OrderState(c, a); a.OrderState(c, a) }, "coded twice"},
		{"another handler", func(c *snapshot.Codec) { a.OrderState(c, b) }, "another handler"},
		{"a function handler", func(c *snapshot.Codec) { a.OrderState(c, HandlerFunc(func(*Event) {})) }, "another handler"},
	} {
		if err := walk(tc.fn); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestClockAccessors(t *testing.T) {
	if c := NewClock(4); c.Period() != 4 {
		t.Fatalf("period %d", c.Period())
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
