package channel

import (
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
	"supersim/internal/types"
)

// recorder is a receiver that logs each delivery as (tick, port, kind).
type recorder struct {
	s    *sim.Simulator
	line *Line
	log  []delivery
}

type delivery struct {
	at     sim.Tick
	port   int
	credit bool
}

func newRecorder(s *sim.Simulator) *recorder {
	r := &recorder{s: s, line: NewLine(s, "rx", 3)}
	r.line.Bind(r)
	return r
}

func (r *recorder) ReceiveFlit(port, vc int, f *types.Flit) {
	r.log = append(r.log, delivery{r.s.Now().Tick, port, false})
}

func (r *recorder) ReceiveCredit(port int, c types.Credit) {
	r.log = append(r.log, delivery{r.s.Now().Tick, port, true})
}

func (r *recorder) Arrivals() *Line { return r.line }

// TestLineDeliversByInboundIndex sends on three channels into one receiver
// so that everything arrives at tick 10, over two latencies and in the
// reverse of inbound order, and requires one event for the tick and the
// deliveries in inbound order, FIFO within the credit channel.
func TestLineDeliversByInboundIndex(t *testing.T) {
	s := sim.NewSimulator(1)
	r := newRecorder(s)
	slow := New(s, "slow", 8, 1) // inbound 0
	slow.SetSink(r, 0)
	cr := NewCredit(s, "cr", 2) // inbound 1
	cr.SetSink(r, 1)
	fast := New(s, "fast", 2, 1) // inbound 2
	fast.SetSink(r, 2)
	at(s, 2, func() { slow.Inject(flit(), 0) })
	at(s, 8, func() {
		fast.Inject(flit(), 0)
		cr.Inject(types.Credit{VC: 0})
		cr.Inject(types.Credit{VC: 1})
		if n := s.PendingFor(r.line, evArrive); n != 1 {
			t.Errorf("%d arrival events pending for one tick", n)
		}
		if err := r.line.CheckPending(); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	want := []delivery{{10, 0, false}, {10, 1, true}, {10, 1, true}, {10, 2, false}}
	if len(r.log) != len(want) {
		t.Fatalf("deliveries %v, want %v", r.log, want)
	}
	for i := range want {
		if r.log[i] != want[i] {
			t.Fatalf("deliveries %v, want %v", r.log, want)
		}
	}
	if err := r.line.CheckPending(); err != nil {
		t.Fatal(err)
	}
}

// TestLineRejectsOutOfOrderLane pins the lane invariant: arrivals of one
// latency are due in send order, so one due earlier than the lane's last
// is a model error.
func TestLineRejectsOutOfOrderLane(t *testing.T) {
	var ln lane
	ln.q.Push(10, arrival{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic")
		}
	}()
	ln.q.Push(9, arrival{})
}

// TestLineLongLatencyRing connects a channel longer than the line's
// smallest ring and keeps one flit per tick in flight on it, so the due
// ring wraps many times.
func TestLineLongLatencyRing(t *testing.T) {
	s := sim.NewSimulator(1)
	r := newRecorder(s)
	ch := New(s, "long", 200, 1)
	ch.SetSink(r, 4)
	if ch.Name() != "long" || ch.InFlight() != 0 {
		t.Fatal("accessors wrong")
	}
	for i := sim.Tick(1); i <= 500; i++ {
		at(s, i, func() { ch.Inject(flit(), 0) })
	}
	s.RunUntil(300)
	if err := r.line.CheckPending(); err != nil {
		t.Fatal(err)
	}
	if got := ch.InFlight(); got != 200 {
		t.Fatalf("InFlight = %d, want 200", got)
	}
	s.Run()
	if len(r.log) != 500 || r.log[0].at != 201 || r.log[499].at != 700 {
		t.Fatalf("%d deliveries, first at %d, last at %d", len(r.log), r.log[0].at, r.log[len(r.log)-1].at)
	}
	if unconnected := New(s, "x", 1, 1); unconnected.InFlight() != 0 {
		t.Fatal("unconnected channel has flits in flight")
	}
}

// TestLineBookkeepingErrors corrupts a line's bookkeeping the ways
// CheckPending and the event handler must notice.
func TestLineBookkeepingErrors(t *testing.T) {
	build := func() (*sim.Simulator, *recorder, *Channel) {
		s := sim.NewSimulator(1)
		r := newRecorder(s)
		ch := New(s, "ch", 5, 1)
		ch.SetSink(r, 0)
		return s, r, ch
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		fn()
	}

	s, r, ch := build()
	ch.Inject(flit(), 0)
	r.line.due[0] = 0 // the tick's bit lost
	if err := r.line.CheckPending(); err == nil || !strings.Contains(err.Error(), "no due bit") {
		t.Errorf("lost due bit: %v", err)
	}
	r.line.due[0] = 1<<5 | 1<<9 // a stray bit beside the right one
	if err := r.line.CheckPending(); err == nil || !strings.Contains(err.Error(), "2 due bits") {
		t.Errorf("stray due bit: %v", err)
	}
	s.Schedule(r.line, sim.Time{Tick: 5}, evArrive, nil) // a second event for the tick
	if err := r.line.CheckPending(); err == nil || !strings.Contains(err.Error(), "2 pending") {
		t.Errorf("extra event: %v", err)
	}

	s, r, ch = build()
	ch.Inject(flit(), 0)
	s.Schedule(r.line, sim.Time{Tick: 3}, evArrive, nil)
	mustPanic("event with nothing due", func() { s.Run() })

	s, r, ch = build()
	ch.Inject(flit(), 0)
	s.ResetQueue() // the tick-5 event is lost
	s.Schedule(r.line, sim.Time{Tick: 7}, evArrive, nil)
	mustPanic("late arrival", func() { s.Run() })

	s, r, _ = build()
	at(s, 1, func() { New(s, "late", 9, 1).SetSink(r, 1) })
	ch2 := New(s, "first", 5, 1)
	ch2.SetSink(r, 2)
	ch2.Inject(flit(), 0)
	mustPanic("connected in flight", func() { s.Run() })

	mustPanic("unbound line", func() {
		New(s, "x", 1, 1).SetSink(&unbound{NewLine(s, "u", 0)}, 0)
	})
}

// unbound is a receiver whose line was never bound to it.
type unbound struct{ l *Line }

func (u *unbound) ReceiveFlit(int, int, *types.Flit) {}
func (u *unbound) ReceiveCredit(int, types.Credit)   {}
func (u *unbound) Arrivals() *Line                   { return u.l }

func TestLineLoadRejectsInconsistentArrivals(t *testing.T) {
	// A receiver with a flit channel in lane 0 and a credit channel of
	// another latency in lane 1.
	build := func() *Line {
		s := sim.NewSimulator(1)
		r := newRecorder(s)
		New(s, "f", 4, 1).SetSink(r, 0)
		NewCredit(s, "c", 2).SetSink(r, 1)
		return r.line
	}
	l := build()
	tab := types.NewMessageTable(nil, anyIndex)
	for _, tc := range []struct {
		name string
		put  func(c *snapshot.Codec)
		want string
	}{
		{"wrong lane", func(c *snapshot.Codec) {
			l.OrderState(c, l)
			snaptest.Put(c.Int, 2) // two lanes
			snaptest.Put(c.Int, 1) // lane 0: one run
			snaptest.Put(c.U64, 4)
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.Int, 1) // from inbound 1, a lane-1 channel
			snaptest.Put(c.Int, 0)
		}, "of lane 1"},
		{"empty run", func(c *snapshot.Codec) {
			l.OrderState(c, l)
			snaptest.Put(c.Int, 2)
			snaptest.Put(c.Int, 0) // lane 0: no runs
			snaptest.Put(c.Int, 1) // lane 1: one run
			snaptest.Put(c.U64, 2)
			snaptest.Put(c.Int, 0) // ... of nothing
		}, "no arrival"},
		{"runs out of order", func(c *snapshot.Codec) {
			l.OrderState(c, l)
			snaptest.Put(c.Int, 2)
			snaptest.Put(c.Int, 0)
			snaptest.Put(c.Int, 2) // lane 1: two runs
			snaptest.Put(c.U64, 3)
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.Int, 0)
			snaptest.Put(c.U64, 3)
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.Int, 0)
		}, "not due after"},
	} {
		l = build() // each stream codes a fresh line's identity
		err := snaptest.Load(snaptest.Save(tc.put), func(c *snapshot.Codec) { build().State(c, tab, lineVCs) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
