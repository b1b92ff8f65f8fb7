package sim

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// eventKey is an event's position in the queue's total order.
type eventKey struct {
	t     Time
	owner uint32
	oseq  uint64
}

// less orders keys by (tick, epsilon, owner, oseq).
func (a eventKey) less(b eventKey) bool {
	if a.t.Tick != b.t.Tick {
		return a.t.Tick < b.t.Tick
	}
	if a.t.Eps != b.t.Eps {
		return a.t.Eps < b.t.Eps
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.oseq < b.oseq
}

// recorder is a test component that records the order of executed events.
type recorder struct {
	ComponentBase
	typesRun []int
	times    []Time
}

func (r *recorder) ProcessEvent(ev *Event) {
	r.typesRun = append(r.typesRun, ev.Type)
	r.times = append(r.times, ev.Time)
}

func TestSimulatorExecutesInTimeOrder(t *testing.T) {
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	// Schedule out of order, including epsilon ordering within a tick.
	s.Schedule(r, Time{10, 0}, 3, nil)
	s.Schedule(r, Time{5, 2}, 2, nil)
	s.Schedule(r, Time{5, 1}, 1, nil)
	s.Schedule(r, Time{1, 0}, 0, nil)
	s.Schedule(r, Time{10, 1}, 4, nil)
	n := s.Run()
	if n != 5 {
		t.Fatalf("Run executed %d events, want 5", n)
	}
	for i, typ := range r.typesRun {
		if typ != i {
			t.Fatalf("execution order %v, want ascending types", r.typesRun)
		}
	}
	if s.Now() != (Time{10, 1}) {
		t.Fatalf("Now = %v after run, want 10.1", s.Now())
	}
}

func TestSimulatorFIFOTiebreak(t *testing.T) {
	// Events at identical (tick, eps) must execute in scheduling order.
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	for i := 0; i < 50; i++ {
		s.Schedule(r, Time{7, 3}, i, nil)
	}
	s.Run()
	for i, typ := range r.typesRun {
		if typ != i {
			t.Fatalf("FIFO violated at %d: order=%v", i, r.typesRun[:i+1])
		}
	}
}

// chainer schedules a follow-up event from within ProcessEvent.
type chainer struct {
	ComponentBase
	remaining int
	executed  int
}

func (c *chainer) ProcessEvent(ev *Event) {
	c.executed++
	if c.remaining > 0 {
		c.remaining--
		c.Sim().Schedule(c, c.Sim().Now().Plus(1), 0, nil)
	}
}

func TestSimulatorEventChaining(t *testing.T) {
	s := NewSimulator(1)
	c := &chainer{ComponentBase: NewComponentBase(s, "chain"), remaining: 99}
	s.Schedule(c, Time{1, 0}, 0, nil)
	s.Run()
	if c.executed != 100 {
		t.Fatalf("executed %d, want 100", c.executed)
	}
	if s.Now().Tick != 100 {
		t.Fatalf("final tick %d, want 100", s.Now().Tick)
	}
}

func TestSimulatorEpsilonChainingSameTick(t *testing.T) {
	s := NewSimulator(1)
	var eps []Epsilon
	var h Handler
	h = HandlerFunc(func(ev *Event) {
		eps = append(eps, s.Now().Eps)
		if len(eps) < 4 {
			s.Schedule(h, s.Now().NextEps(), 0, nil)
		}
	})
	s.Schedule(h, Time{3, 0}, 0, nil)
	s.Run()
	want := []Epsilon{0, 1, 2, 3}
	for i := range want {
		if eps[i] != want[i] {
			t.Fatalf("epsilons %v, want %v", eps, want)
		}
	}
	if s.Now().Tick != 3 {
		t.Fatalf("tick advanced to %d during epsilon chaining", s.Now().Tick)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewSimulator(1)
	h := HandlerFunc(func(ev *Event) {
		// At time 5.0; scheduling at 5.0 or earlier must panic.
		mustPanic(t, func() { s.Schedule(ev.Handler, Time{5, 0}, 0, nil) })
		mustPanic(t, func() { s.Schedule(ev.Handler, Time{4, 9}, 0, nil) })
	})
	s.Schedule(h, Time{5, 0}, 0, nil)
	s.Run()
}

func TestScheduleNilHandlerPanics(t *testing.T) {
	s := NewSimulator(1)
	mustPanic(t, func() { s.Schedule(nil, Time{1, 0}, 0, nil) })
}

func TestSimulatorStop(t *testing.T) {
	s := NewSimulator(1)
	count := 0
	var h Handler
	h = HandlerFunc(func(ev *Event) {
		count++
		if count == 10 {
			s.Stop()
		}
		s.Schedule(h, s.Now().Plus(1), 0, nil)
	})
	s.Schedule(h, Time{1, 0}, 0, nil)
	s.Run()
	if count != 10 {
		t.Fatalf("executed %d events after Stop, want 10", count)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

// stopOn counts the events it executes and calls Stop on one of negative
// type.
type stopOn struct {
	ComponentBase
	executed int
}

func (c *stopOn) ProcessEvent(ev *Event) {
	c.executed++
	if ev.Type < 0 {
		c.Sim().Stop()
	}
}

// TestStopIsSticky pins the Stop contract: the run ends mid-timestamp, every
// later Run and RunUntil executes nothing, and what Stop left queued — the
// rest of the timestamp that was executing, plus anything scheduled into that
// same timestamp afterwards — stays pending and exports in order.
func TestStopIsSticky(t *testing.T) {
	s := NewSimulator(1)
	var c [5]*stopOn // owners 1..5
	for i := range c {
		c[i] = &stopOn{ComponentBase: NewComponentBase(s, "c")}
	}
	at := Time{10, 3}
	s.Schedule(c[4], at, 4, nil)
	s.Schedule(c[2], at, -1, nil)
	s.Schedule(c[1], at, 1, nil)
	s.Schedule(c[0], Time{20, 0}, 0, nil)

	if n := s.Run(); n != 2 || c[1].executed != 1 || c[2].executed != 1 {
		t.Fatalf("Run executed %d events, want 2: c1, then c2 which stops", n)
	}
	if !s.Stopped() || s.Now() != at || s.Pending() != 2 {
		t.Fatalf("after Stop: Stopped() = %v, Now() = %v, Pending() = %d; want true, %v, 2", s.Stopped(), s.Now(), s.Pending(), at)
	}

	// Into the half-drained timestamp: an owner that sorts before everything
	// already executed there, and one that sorts between the leftovers.
	s.Schedule(c[0], at, 0, nil)
	s.ScheduleDaemon(c[3], at, 3, nil)
	if s.Pending() != 4 || s.PendingNonDaemon() != 3 {
		t.Fatalf("Pending() = %d, PendingNonDaemon() = %d, want 4 and 3", s.Pending(), s.PendingNonDaemon())
	}
	if n := s.Run() + s.RunUntil(1000); n != 0 {
		t.Fatalf("a stopped simulator executed %d events", n)
	}
	if c[0].executed+c[3].executed+c[4].executed != 0 || s.Pending() != 4 {
		t.Fatal("Run after Stop touched the queue")
	}

	got, err := s.ExportEvents()
	if err != nil {
		t.Fatal(err)
	}
	SortEventRecords(got)
	want := []EventRecord{
		{Tick: 10, Eps: 3, Owner: 1, Oseq: 2, Type: 0},
		{Tick: 10, Eps: 3, Owner: 4, Oseq: 1, Type: 3, Daemon: true},
		{Tick: 10, Eps: 3, Owner: 5, Oseq: 1, Type: 4},
		{Tick: 20, Eps: 0, Owner: 1, Oseq: 1, Type: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("exported %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestQueuePushAheadOfOpenBucket drives the queue as a bare priority queue
// into the one state a Simulator never reaches without panicking afterwards:
// an event pushed before the timestamp being drained. It must still come out
// first, and the interrupted timestamp must resume where it stopped.
func TestQueuePushAheadOfOpenBucket(t *testing.T) {
	var q eventQueue
	ev := func(tick Tick, owner uint32) *Event {
		return &Event{Time: Time{Tick: tick}, owner: owner, oseq: 1}
	}
	for _, owner := range []uint32{3, 1, 2} {
		q.push(ev(10, owner))
	}
	if e := q.pop(); e.owner != 1 {
		t.Fatalf("popped owner %d first, want 1", e.owner)
	}
	q.push(ev(5, 9))
	q.push(ev(10, 1)) // same key as the event already popped: next in its timestamp
	if q.nextTick() != 5 {
		t.Fatalf("nextTick() = %d, want 5", q.nextTick())
	}
	var got []eventKey
	for q.len() > 0 {
		e := q.pop()
		got = append(got, eventKey{e.Time, e.owner, e.oseq})
	}
	want := []eventKey{{Time{5, 0}, 9, 1}, {Time{10, 0}, 1, 1}, {Time{10, 0}, 2, 1}, {Time{10, 0}, 3, 1}}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pop %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestQueueTimestampIndex drives the queue as a bare priority queue through
// the index's edge cases against a sorted slice: new timestamps inserted
// before, between (a tick, or an epsilon, apart) and after pending ones; over
// a hundred timestamps retired while later ones are pending, so the FIFO
// under the index compacts; and, after that, pushes into and ahead of a
// half-drained bucket. Every pending event must be visited by each, the open
// bucket's remainder included, each must stop when its function returns
// false, and every pop must be the reference's least.
func TestQueueTimestampIndex(t *testing.T) {
	var q eventQueue
	var ref []eventKey
	oseq := uint64(0)
	push := func(tick Tick, eps Epsilon, owner uint32) {
		oseq++
		q.push(&Event{Time: Time{tick, eps}, owner: owner, oseq: oseq})
		ref = append(ref, eventKey{Time{tick, eps}, owner, oseq})
		sort.Slice(ref, func(i, j int) bool { return ref[i].less(ref[j]) })
	}
	pop := func() {
		t.Helper()
		e := q.pop()
		if got := (eventKey{e.Time, e.owner, e.oseq}); got != ref[0] {
			t.Fatalf("popped %+v, want %+v", got, ref[0])
		}
		ref = ref[1:]
	}
	checkEach := func(when string) {
		t.Helper()
		var got []eventKey
		q.each(func(e *Event) bool {
			got = append(got, eventKey{e.Time, e.owner, e.oseq})
			return true
		})
		sort.Slice(got, func(i, j int) bool { return got[i].less(got[j]) })
		if len(got) != len(ref) || q.len() != len(ref) {
			t.Fatalf("%s: each visited %d events, len() %d, want %d", when, len(got), q.len(), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: each visited %+v, want %+v", when, got[i], ref[i])
			}
		}
		visited := 0
		q.each(func(*Event) bool { visited++; return false })
		if visited != min(1, len(ref)) {
			t.Fatalf("%s: each went on for %d events after fn returned false", when, visited)
		}
	}

	// 100 timestamps at even ticks, pushed back to front so that each one
	// goes before every pending one; a later owner arrives first in each.
	for tick := Tick(200); tick >= 2; tick -= 2 {
		push(tick, 0, 2)
		push(tick, 0, 1)
	}
	// Retire 120 timestamps while later ones are pending. Every third retired
	// tick creates one between its successors (an odd tick), every fifth one
	// behind the last, and every seventh one an epsilon after a pending tick.
	for i := 0; i < 120; i++ {
		tick := q.nextTick()
		for q.nextTick() == tick {
			pop()
		}
		if i%3 == 0 {
			push(tick+3, 0, 3)
		}
		if i%5 == 0 {
			push(1000+tick, 0, 4)
		}
		if i%7 == 0 {
			push(tick+4, 1, 5)
		}
		checkEach("retiring")
	}
	if q.times.head >= 120 {
		t.Fatalf("120 timestamps retired and the FIFO's head is at %d: it never compacted", q.times.head)
	}
	// Open the front bucket, take one event, then push into it and ahead of it.
	push(q.nextTick(), 0, 9)
	pop()
	checkEach("half-drained bucket")
	front := q.times.Front().t
	push(front.Tick, front.Eps, 0)
	push(front.Tick-1, 0, 7)
	checkEach("after pushes ahead of the open bucket")
	for q.len() > 0 {
		pop()
	}
}

func TestSimulatorRunUntil(t *testing.T) {
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	for i := 0; i < 10; i++ {
		s.Schedule(r, Time{Tick(i * 10), 0}, i, nil)
	}
	s.RunUntil(50)
	if len(r.typesRun) != 5 {
		t.Fatalf("RunUntil(50) executed %d events, want 5 (ticks 0..40)", len(r.typesRun))
	}
	s.Run()
	if len(r.typesRun) != 10 {
		t.Fatalf("resume executed %d total, want 10", len(r.typesRun))
	}
}

func TestSimulatorContextAndType(t *testing.T) {
	s := NewSimulator(1)
	type payload struct{ x int }
	got := 0
	h := HandlerFunc(func(ev *Event) {
		if ev.Type != 42 {
			t.Errorf("Type = %d", ev.Type)
		}
		got = ev.Context.(*payload).x
	})
	s.Schedule(h, Time{1, 0}, 42, &payload{x: 7})
	s.Run()
	if got != 7 {
		t.Fatalf("context payload = %d, want 7", got)
	}
}

func TestSimulatorEventRecycling(t *testing.T) {
	// Run two waves; the second wave reuses freed events. Correctness is that
	// contexts and types do not leak between waves.
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	for i := 0; i < 100; i++ {
		s.Schedule(r, Time{Tick(i + 1), 0}, i, nil)
	}
	s.Run()
	r.typesRun = nil
	for i := 0; i < 100; i++ {
		s.Schedule(r, Time{Tick(1000 + i), 0}, 1000+i, nil)
	}
	s.Run()
	for i, typ := range r.typesRun {
		if typ != 1000+i {
			t.Fatalf("recycled event carried stale type: %v", r.typesRun[i])
		}
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		s := NewSimulator(seed)
		rng := s.DeriveRand("draws")
		var seq []uint64
		var h Handler
		n := 0
		h = HandlerFunc(func(ev *Event) {
			v := rng.Uint64()
			seq = append(seq, v)
			n++
			if n < 100 {
				s.Schedule(h, s.Now().Plus(1+v%5), 0, nil)
			}
		})
		s.Schedule(h, Time{1, 0}, 0, nil)
		s.Run()
		return seq
	}
	a, b := run(12345), run(12345)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := run(54321)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestSimulatorMonitor(t *testing.T) {
	s := NewSimulator(1)
	var calls []uint64
	s.MonitorInterval = 10
	s.Monitor = func(now Time, executed uint64) { calls = append(calls, executed) }
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	for i := 0; i < 35; i++ {
		s.Schedule(r, Time{Tick(i + 1), 0}, i, nil)
	}
	s.Run()
	if len(calls) != 3 || calls[0] != 10 || calls[2] != 30 {
		t.Fatalf("monitor calls %v, want [10 20 30]", calls)
	}
}

// Property: for any multiset of scheduled times, execution happens in
// nondecreasing (tick, eps) order.
func TestSimulatorTimeOrderProperty(t *testing.T) {
	prop := func(ticks []uint16, eps []uint8) bool {
		if len(ticks) == 0 {
			return true
		}
		s := NewSimulator(7)
		r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
		for i, tk := range ticks {
			e := Epsilon(0)
			if len(eps) > 0 {
				e = Epsilon(eps[i%len(eps)])
			}
			s.Schedule(r, Time{Tick(tk) + 1, e}, i, nil)
		}
		s.Run()
		if !sort.SliceIsSorted(r.times, func(i, j int) bool { return r.times[i].Before(r.times[j]) }) {
			// equal times allowed; check non-decreasing
			for i := 1; i < len(r.times); i++ {
				if r.times[i].Before(r.times[i-1]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestHandlerFunc(t *testing.T) {
	s := NewSimulator(1)
	fired := false
	s.Schedule(HandlerFunc(func(ev *Event) { fired = true }), Time{1, 0}, 0, nil)
	s.Run()
	if !fired {
		t.Fatal("HandlerFunc not invoked")
	}
}

func TestComponentBasePanicHelpers(t *testing.T) {
	s := NewSimulator(1)
	c := NewComponentBase(s, "unit")
	mustPanic(t, func() { c.Panicf("boom %d", 3) })
	mustPanic(t, func() { c.Assert(false, "bad") })
	c.Assert(true, "fine") // must not panic
	if c.Name() != "unit" || c.Sim() != s {
		t.Fatal("accessors wrong")
	}
}

func TestNewComponentBaseNilSimPanics(t *testing.T) {
	mustPanic(t, func() { NewComponentBase(nil, "x") })
}

func TestPendingFor(t *testing.T) {
	s := NewSimulator(1)
	a := &recorder{ComponentBase: NewComponentBase(s, "a")}
	b := &recorder{ComponentBase: NewComponentBase(s, "b")}
	s.Schedule(a, Time{5, 0}, 1, nil)
	s.Schedule(a, Time{5, 0}, 1, nil)
	s.Schedule(a, Time{9, 0}, 1, nil)
	s.Schedule(a, Time{9, 0}, 2, nil)
	s.Schedule(b, Time{5, 0}, 1, nil)
	if n := s.PendingFor(a, 1); n != 3 {
		t.Fatalf("PendingFor(a, 1) = %d, want 3", n)
	}
	s.RunUntil(6)
	for _, c := range []struct {
		h    Handler
		typ  int
		want int
	}{{a, 1, 1}, {a, 2, 1}, {b, 1, 0}, {a, 3, 0}} {
		if n := s.PendingFor(c.h, c.typ); n != c.want {
			t.Fatalf("after tick 6: PendingFor(%p, %d) = %d, want %d", c.h, c.typ, n, c.want)
		}
	}
}

// namedRec records which component executed, for cross-component order tests.
type namedRec struct {
	ComponentBase
	out *[]string
}

func (n *namedRec) ProcessEvent(ev *Event) { *n.out = append(*n.out, n.Name()) }

func TestSameTimeOrderByConstructionOrder(t *testing.T) {
	// Events at identical (tick, eps) from different components execute in
	// component construction order, not scheduling order: construction order
	// is fixed at build time, so the order does not depend on how the
	// handlers' Schedule calls interleave.
	s := NewSimulator(1)
	var got []string
	a := &namedRec{ComponentBase: NewComponentBase(s, "a"), out: &got}
	b := &namedRec{ComponentBase: NewComponentBase(s, "b"), out: &got}
	c := &namedRec{ComponentBase: NewComponentBase(s, "c"), out: &got}
	for _, h := range []Handler{c, a, b} { // schedule out of construction order
		s.Schedule(h, Time{Tick: 5}, 0, nil)
	}
	s.Run()
	if want := "a b c"; strings.Join(got, " ") != want {
		t.Fatalf("same-time order %v, want construction order %q", got, want)
	}

	// The shared test recorder is a keyed component too: its events carry its
	// construction-order key, so they execute by that key and survive
	// ExportEvents.
	s = NewSimulator(1)
	r1 := &recorder{ComponentBase: NewComponentBase(s, "r1")}
	r2 := &recorder{ComponentBase: NewComponentBase(s, "r2")}
	s.Schedule(r2, Time{Tick: 5}, 2, nil)
	s.Schedule(r1, Time{Tick: 5}, 1, nil)
	recs, err := s.ExportEvents()
	if err != nil {
		t.Fatalf("recorder events do not export: %v", err)
	}
	SortEventRecords(recs)
	if len(recs) != 2 || recs[0].Owner != r1.ord.key || recs[1].Owner != r2.ord.key ||
		r1.ord.key == 0 || r1.ord.key >= r2.ord.key {
		t.Fatalf("recorder events not keyed by construction order: %+v (keys %d, %d)",
			recs, r1.ord.key, r2.ord.key)
	}
}

func TestDeriveRandPartitionIndependent(t *testing.T) {
	s1 := NewSimulator(9)
	s2 := NewSimulator(9)
	// Perturb s2 with another stream: derived streams must not care.
	s2.DeriveRand("router6").Uint64()
	a1 := s1.DeriveRand("router7")
	a2 := s2.DeriveRand("router7")
	for i := 0; i < 32; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatalf("same seed+name diverged at draw %d", i)
		}
	}
	// Different names and different seeds give different streams.
	b := s1.DeriveRand("router8")
	c := NewSimulator(10).DeriveRand("router7")
	ref := NewSimulator(9).DeriveRand("router7")
	sameB, sameC := true, true
	for i := 0; i < 32; i++ {
		v := ref.Uint64()
		if b.Uint64() != v {
			sameB = false
		}
		if c.Uint64() != v {
			sameC = false
		}
	}
	if sameB {
		t.Fatal("different names produced identical streams")
	}
	if sameC {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRunUntilDoesNotMonitorFinish(t *testing.T) {
	// Pins the Run/RunUntil asymmetry documented on RunUntil: a horizon is a
	// pause, not the end of the run, so only Run (or an explicit
	// FinishMonitor) flushes the final monitor interval.
	s := NewSimulator(1)
	finishes := 0
	s.MonitorFinish = func(now Time, executed uint64) { finishes++ }
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	for i := 0; i < 10; i++ {
		s.Schedule(r, Time{Tick: Tick(i + 1)}, i, nil)
	}
	s.RunUntil(5)
	s.RunUntil(100) // drains the queue — still not the declared end
	if finishes != 0 {
		t.Fatalf("RunUntil invoked MonitorFinish %d times, want 0", finishes)
	}
	s.FinishMonitor()
	if finishes != 1 {
		t.Fatalf("FinishMonitor invoked MonitorFinish %d times, want 1", finishes)
	}

	s2 := NewSimulator(1)
	finishes2 := 0
	s2.MonitorFinish = func(now Time, executed uint64) { finishes2++ }
	s2.Schedule(&recorder{ComponentBase: NewComponentBase(s2, "rec")}, Time{Tick: 1}, 0, nil)
	s2.Run()
	if finishes2 != 1 {
		t.Fatalf("Run invoked MonitorFinish %d times, want 1", finishes2)
	}
}

func TestEventFreeListCapped(t *testing.T) {
	// Recycling far more events than the cap must not grow the free list past
	// maxEventFreeList: burst peaks are returned to the GC.
	s := NewSimulator(1)
	r := &recorder{ComponentBase: NewComponentBase(s, "rec")}
	for i := 0; i < 3*maxEventFreeList; i++ {
		s.Schedule(r, Time{Tick: Tick(i + 1)}, i, nil)
	}
	s.Run()
	if len(s.free) > maxEventFreeList {
		t.Fatalf("free list grew to %d, cap is %d", len(s.free), maxEventFreeList)
	}
	if len(s.free) != maxEventFreeList {
		t.Fatalf("free list holds %d after a %d-event run, want full cap %d",
			len(s.free), 3*maxEventFreeList, maxEventFreeList)
	}
}
