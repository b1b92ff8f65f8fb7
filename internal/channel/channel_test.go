package channel

import (
	"testing"

	"supersim/internal/sim"
	"supersim/internal/types"
)

type flitCollector struct {
	flits []*types.Flit
	ports []int
	times []sim.Tick
	s     *sim.Simulator
}

func (fc *flitCollector) ReceiveFlit(port int, f *types.Flit) {
	fc.flits = append(fc.flits, f)
	fc.ports = append(fc.ports, port)
	fc.times = append(fc.times, fc.s.Now().Tick)
}

type creditCollector struct {
	credits []types.Credit
	times   []sim.Tick
	s       *sim.Simulator
}

func (cc *creditCollector) ReceiveCredit(port int, c types.Credit) {
	cc.credits = append(cc.credits, c)
	cc.times = append(cc.times, cc.s.Now().Tick)
}

func flit() *types.Flit {
	return types.NewMessage(1, 0, 0, 1, 1, 1).Packet(0).Flit(0)
}

func at(s *sim.Simulator, tick sim.Tick, fn func()) {
	s.Schedule(sim.HandlerFunc(func(*sim.Event) { fn() }), sim.Time{Tick: tick}, 0, nil)
}

func TestChannelDeliversAfterLatency(t *testing.T) {
	s := sim.NewSimulator(1)
	ch := New(s, "ch", 50, 1)
	sink := &flitCollector{s: s}
	ch.SetSink(sink, 3)
	if got, port := ch.Sink(); got != sink || port != 3 {
		t.Fatal("Sink() does not return the connected sink")
	}
	f := flit()
	at(s, 100, func() { ch.Inject(f) })
	s.Run()
	if len(sink.flits) != 1 || sink.flits[0] != f {
		t.Fatal("flit not delivered")
	}
	if sink.times[0] != 150 {
		t.Fatalf("delivered at %d, want 150", sink.times[0])
	}
	if sink.ports[0] != 3 {
		t.Fatalf("port = %d, want 3", sink.ports[0])
	}
	if f.SendTime != 100 || f.ReceiveTime != 150 {
		t.Fatalf("timestamps %d/%d", f.SendTime, f.ReceiveTime)
	}
	if ch.Injected() != 1 {
		t.Fatalf("Injected = %d", ch.Injected())
	}
}

func TestChannelBandwidthSpacing(t *testing.T) {
	s := sim.NewSimulator(1)
	ch := New(s, "ch", 10, 4) // one flit per 4 ticks
	sink := &flitCollector{s: s}
	ch.SetSink(sink, 0)
	at(s, 100, func() {
		ch.Inject(flit())
		if ch.Available(100) {
			t.Error("channel should be busy at injection tick")
		}
		if got := ch.NextSlot(100); got != 104 {
			t.Errorf("NextSlot = %d, want 104", got)
		}
	})
	at(s, 104, func() { ch.Inject(flit()) })
	s.Run()
	if len(sink.flits) != 2 {
		t.Fatalf("delivered %d flits", len(sink.flits))
	}
	if sink.times[0] != 110 || sink.times[1] != 114 {
		t.Fatalf("delivery times %v", sink.times)
	}
}

func TestChannelBandwidthViolationPanics(t *testing.T) {
	s := sim.NewSimulator(1)
	ch := New(s, "ch", 10, 4)
	ch.SetSink(&flitCollector{s: s}, 0)
	panicked := false
	at(s, 100, func() { ch.Inject(flit()) })
	at(s, 102, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ch.Inject(flit())
	})
	s.Run()
	if !panicked {
		t.Fatal("expected bandwidth violation panic")
	}
}

func TestChannelUnconnectedPanics(t *testing.T) {
	s := sim.NewSimulator(1)
	ch := New(s, "ch", 10, 1)
	panicked := false
	at(s, 1, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ch.Inject(flit())
	})
	s.Run()
	if !panicked {
		t.Fatal("expected unconnected panic")
	}
}

func TestChannelInvalidConstruction(t *testing.T) {
	s := sim.NewSimulator(1)
	for _, fn := range []func(){
		func() { New(s, "x", 0, 1) },
		func() { New(s, "x", 1, 0) },
		func() { NewCredit(s, "x", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestChannelAccessors(t *testing.T) {
	s := sim.NewSimulator(1)
	ch := New(s, "ch", 25, 2)
	if ch.Latency() != 25 || ch.Period() != 2 {
		t.Fatal("accessors wrong")
	}
	if ch.NextSlot(7) != 7 {
		t.Fatal("NextSlot on idle channel should be now")
	}
	cc := NewCredit(s, "cc", 25)
	if cc.Latency() != 25 {
		t.Fatal("credit latency")
	}
}

func TestCreditChannelDelivery(t *testing.T) {
	s := sim.NewSimulator(1)
	cc := NewCredit(s, "cc", 50)
	sink := &creditCollector{s: s}
	cc.SetSink(sink, 2)
	at(s, 10, func() { cc.Inject(types.Credit{VC: 3}) })
	at(s, 11, func() { cc.Inject(types.Credit{VC: 1}) }) // no bandwidth limit
	s.Run()
	if len(sink.credits) != 2 {
		t.Fatalf("delivered %d credits", len(sink.credits))
	}
	if sink.credits[0].VC != 3 || sink.times[0] != 60 {
		t.Fatalf("credit 0 = %+v at %d", sink.credits[0], sink.times[0])
	}
	if sink.times[1] != 61 {
		t.Fatalf("credit 1 at %d", sink.times[1])
	}
}

func TestCreditChannelUnconnectedPanics(t *testing.T) {
	s := sim.NewSimulator(1)
	cc := NewCredit(s, "cc", 5)
	panicked := false
	at(s, 1, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		cc.Inject(types.Credit{})
	})
	s.Run()
	if !panicked {
		t.Fatal("expected panic")
	}
}

func TestChannelPipelining(t *testing.T) {
	// Latency > period: several flits in flight simultaneously.
	s := sim.NewSimulator(1)
	ch := New(s, "ch", 100, 1)
	sink := &flitCollector{s: s}
	ch.SetSink(sink, 0)
	for i := sim.Tick(0); i < 10; i++ {
		tick := 10 + i
		at(s, tick, func() { ch.Inject(flit()) })
	}
	s.Run()
	if len(sink.flits) != 10 {
		t.Fatalf("delivered %d", len(sink.flits))
	}
	for i, tm := range sink.times {
		if tm != 110+sim.Tick(i) {
			t.Fatalf("flit %d delivered at %d", i, tm)
		}
	}
}

func TestChannelInFlightAndCompaction(t *testing.T) {
	s := sim.NewSimulator(1)
	ch := New(s, "ch", 1000, 1) // long latency: many flits in flight
	sink := &flitCollector{s: s}
	ch.SetSink(sink, 0)
	const n = 200
	for i := sim.Tick(0); i < n; i++ {
		tick := i + 1
		at(s, tick, func() { ch.Inject(flit()) })
	}
	s.RunUntil(n + 10)
	if got := ch.InFlight(); got != n {
		t.Fatalf("InFlight = %d, want %d", got, n)
	}
	s.Run()
	if len(sink.flits) != n {
		t.Fatalf("delivered %d", len(sink.flits))
	}
	if ch.InFlight() != 0 {
		t.Fatalf("InFlight after drain = %d", ch.InFlight())
	}
	for i := 1; i < n; i++ {
		if sink.times[i] != sink.times[i-1]+1 {
			t.Fatal("delivery order corrupted by compaction")
		}
	}
}

func TestCreditChannelBurstCompaction(t *testing.T) {
	s := sim.NewSimulator(1)
	cc := NewCredit(s, "cc", 500)
	sink := &creditCollector{s: s}
	cc.SetSink(sink, 0)
	const n = 300
	for i := sim.Tick(0); i < n; i++ {
		tick := i + 1
		vc := int(i % 4)
		at(s, tick, func() { cc.Inject(types.Credit{VC: vc}) })
	}
	s.Run()
	if len(sink.credits) != n {
		t.Fatalf("delivered %d credits", len(sink.credits))
	}
	for i := 0; i < n; i++ {
		if sink.credits[i].VC != i%4 {
			t.Fatalf("credit %d VC %d, want %d (order corrupted)", i, sink.credits[i].VC, i%4)
		}
	}
}
