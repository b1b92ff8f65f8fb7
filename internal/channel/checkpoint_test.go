package channel

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
	"supersim/internal/types"
)

// inFlightChannel builds a channel with two flits mid-flight and returns it
// with the message whose flits are traveling.
func inFlightChannel(t *testing.T) (*Channel, *types.Message) {
	t.Helper()
	s := sim.NewSimulator(1)
	c := New(s, "chan_0", 4, 2)
	c.SetSink(&flitCollector{s: s}, 0)
	m := types.NewMessage(7, 0, 0, 1, 2, 2)
	c.Inject(m.Packet(0).Flit(0), 1)
	s.SetNow(sim.Time{Tick: 2})
	c.Inject(m.Packet(0).Flit(1), 0)
	return c, m
}

// lineVCs is the VC count the line tests code flit and credit VCs against.
const lineVCs = 2

// stateOf codes a channel and its receiver's arrival line after their
// simulator, as the simulation's walk does.
func stateOf(ch *Channel) func(*snapshot.Codec) {
	return func(c *snapshot.Codec) {
		ch.line.Sim().State(c)
		ch.State(c)
		ch.line.State(c, types.NewMessageTable(nil, anyIndex), lineVCs)
	}
}

func saveChannel(ch *Channel) []byte { return snaptest.Save(stateOf(ch)) }

func loadChannel(data []byte, ch *Channel) error { return snaptest.Load(data, stateOf(ch)) }

// freshChannel builds the channel inFlightChannel builds, connected, in a
// new simulator and with nothing sent.
func freshChannel() *Channel {
	s := sim.NewSimulator(1)
	c := New(s, "chan_0", 4, 2)
	c.SetSink(&flitCollector{s: s}, 0)
	return c
}

// anyIndex admits every terminal, application and VC number the tests use.
var anyIndex = types.Bounds{Terminals: 64, Apps: 64}

func TestChannelStateRoundTrip(t *testing.T) {
	c, m := inFlightChannel(t)
	data := saveChannel(c)

	got := freshChannel()
	if err := loadChannel(data, got); err != nil {
		t.Fatal(err)
	}
	if got.InFlight() != 2 || got.Injected() != c.Injected() || got.NextSlot(0) != c.NextSlot(0) {
		t.Fatalf("restored channel: inflight %d injected %d next %d", got.InFlight(), got.Injected(), got.NextSlot(0))
	}
	// Both flits are in one message, defined once, at the first of them,
	// and each keeps the VC it was sent on.
	a0, a1 := got.line.lanes[0].q.Live()[0], got.line.lanes[0].q.Live()[1]
	f0, f1 := a0.f, a1.f
	if f0.Pkt.Msg != f1.Pkt.Msg || f0.Pkt.Msg == m || f0.ID != 0 || f1.ID != 1 {
		t.Fatalf("restored flits %v, %v do not share one new message", f0, f1)
	}
	if a0.vc != 1 || a1.vc != 0 {
		t.Fatalf("restored flits on VCs %d and %d, want 1 and 0", a0.vc, a1.vc)
	}
	if err := got.line.CheckPending(); err == nil || !strings.Contains(err.Error(), "0 pending arrival events for 2") {
		// The snapshot's event queue, not the line, re-creates the events.
		t.Fatalf("restored line: %v, want its two ticks marked and no events", err)
	}
	if !bytes.Equal(saveChannel(got), data) {
		t.Fatal("re-saved channel state is not byte-identical")
	}
}

func TestChannelLoadRejectsCorruption(t *testing.T) {
	c, _ := inFlightChannel(t)
	data := saveChannel(c)

	// A missing flit reference: an absent reference where one is required.
	noFlit := snaptest.Save(func(e *snapshot.Codec) {
		c.line.Sim().State(e)
		snaptest.Put(e.U64, 4) // nextSlot
		snaptest.Put(e.U64, 1) // injected
		c.line.OrderState(e, c.line)
		snaptest.Put(e.Int, 1) // one lane
		snaptest.Put(e.Int, 1) // one run in it
		snaptest.Put(e.U64, 5) // due at 5
		snaptest.Put(e.Int, 1) // one arrival in the run
		snaptest.Put(e.Int, 0) // from inbound 0, the flit channel
		snaptest.Put(e.Int, 0) // ... on VC 0
		snaptest.Put(e.Int, 0) // ... with no flit
	})
	if err := loadChannel(noFlit, freshChannel()); err == nil ||
		!strings.Contains(err.Error(), "no flit") {
		t.Fatalf("err = %v, want missing-flit error", err)
	}

	// A flit on a VC the receiver does not have.
	badVC := snaptest.Save(func(e *snapshot.Codec) {
		c.line.Sim().State(e)
		snaptest.Put(e.U64, 4) // nextSlot
		snaptest.Put(e.U64, 1) // injected
		c.line.OrderState(e, c.line)
		snaptest.Put(e.Int, 1)       // one lane
		snaptest.Put(e.Int, 1)       // one run in it
		snaptest.Put(e.U64, 5)       // due at 5
		snaptest.Put(e.Int, 1)       // one arrival in the run
		snaptest.Put(e.Int, 0)       // from inbound 0, the flit channel
		snaptest.Put(e.Int, lineVCs) // ... on a VC out of range
	})
	if err := loadChannel(badVC, freshChannel()); err == nil ||
		!strings.Contains(err.Error(), "flit arrival VC 2 out of range") {
		t.Fatalf("err = %v, want an out-of-range flit VC error", err)
	}

	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if err := loadChannel(data[:n], freshChannel()); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}

func TestCreditChannelStateRoundTrip(t *testing.T) {
	build := func() (*CreditChannel, *creditCollector) {
		s := sim.NewSimulator(1)
		c := NewCredit(s, "cred_0", 3)
		sink := &creditCollector{s: s}
		c.SetSink(sink, 0)
		return c, sink
	}
	c, _ := build()
	c.Inject(types.Credit{VC: 1})
	c.Inject(types.Credit{VC: 0})
	state := func(cc *CreditChannel) func(*snapshot.Codec) {
		return func(c *snapshot.Codec) {
			cc.line.Sim().State(c)
			cc.line.State(c, nil, lineVCs)
		}
	}
	data := snaptest.Save(state(c))

	got, sink := build()
	d := snapshot.NewLoader(data)
	if state(got)(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if !bytes.Equal(snaptest.Save(state(got)), data) {
		t.Fatal("re-saved credit state is not byte-identical")
	}
	// The restored arrivals deliver, in order, from the event a restore
	// re-injects.
	got.s.Schedule(got.line, sim.Time{Tick: 3}, evArrive, nil)
	got.s.Run()
	if len(sink.credits) != 2 || sink.credits[0].VC != 1 || sink.credits[1].VC != 0 || sink.times[0] != 3 {
		t.Fatalf("restored credits delivered %+v at %v", sink.credits, sink.times)
	}

	for _, n := range []int{0, len(data) / 2, len(data) - 1} {
		fresh, _ := build()
		if err := snaptest.Load(data[:n], state(fresh)); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
	// A credit for a VC the receiver does not have.
	bad := snaptest.Save(func(e *snapshot.Codec) {
		c.line.Sim().State(e)
		c.line.OrderState(e, c.line)
		snaptest.Put(e.Int, 1) // one lane
		snaptest.Put(e.Int, 1) // one run in it
		snaptest.Put(e.U64, 3) // due at 3
		snaptest.Put(e.Int, 1) // one arrival in the run
		snaptest.Put(e.Int, 0) // from inbound 0, the credit channel
		snaptest.Put(e.Int, lineVCs)
	})
	fresh, _ := build()
	if err := snaptest.Load(bad, state(fresh)); err == nil || !strings.Contains(err.Error(), "Credit.VC") {
		t.Fatalf("err = %v, want an out-of-range VC error", err)
	}
}
