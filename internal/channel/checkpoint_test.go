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
	c.Inject(m.Packet(0).Flit(0))
	s.SetNow(sim.Time{Tick: 2})
	c.Inject(m.Packet(0).Flit(1))
	return c, m
}

func saveChannel(ch *Channel, tab *types.MessageTable) []byte {
	return snaptest.Save(func(c *snapshot.Codec) { ch.State(c, tab) })
}

func loadChannel(data []byte, ch *Channel, tab *types.MessageTable) error {
	return snaptest.Load(data, func(c *snapshot.Codec) { ch.State(c, tab) })
}

// anyIndex admits every terminal, application and VC number the tests use.
var anyIndex = types.Bounds{Terminals: 64, Apps: 64, VCs: 64}

// reloadTable returns a fresh table holding restored copies of tab's messages.
func reloadTable(t *testing.T, tab *types.MessageTable) *types.MessageTable {
	t.Helper()
	data := snaptest.Save(func(c *snapshot.Codec) { tab.State(c, nil, anyIndex) })
	rtab := types.NewMessageTable()
	if err := snaptest.Load(data, func(c *snapshot.Codec) { rtab.State(c, nil, anyIndex) }); err != nil {
		t.Fatal(err)
	}
	return rtab
}

func TestChannelStateRoundTrip(t *testing.T) {
	c, m := inFlightChannel(t)
	tab := types.NewMessageTable()
	c.Collect(tab)
	if tab.Len() != 1 {
		t.Fatalf("collected %d messages, want 1", tab.Len())
	}
	data := saveChannel(c, tab)

	rtab := reloadTable(t, tab)
	s2 := sim.NewSimulator(1)
	got := New(s2, "chan_0", 4, 2)
	d := snapshot.NewLoader(data)
	if got.State(d, rtab); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.InFlight() != 2 || got.Injected() != c.Injected() || got.NextSlot(0) != c.NextSlot(0) {
		t.Fatalf("restored channel: inflight %d injected %d next %d", got.InFlight(), got.Injected(), got.NextSlot(0))
	}
	if !bytes.Equal(saveChannel(got, rtab), data) {
		t.Fatal("re-saved channel state is not byte-identical")
	}
	_ = m
}

func TestChannelLoadRejectsCorruption(t *testing.T) {
	c, _ := inFlightChannel(t)
	tab := types.NewMessageTable()
	c.Collect(tab)
	data := saveChannel(c, tab)

	// A missing flit reference: a present=false entry where one is required.
	noFlit := snaptest.Save(func(e *snapshot.Codec) {
		c.OrderState(e)
		snaptest.Put(e.U64, 4)      // nextSlot
		snaptest.Put(e.U64, 1)      // injected
		snaptest.Put(e.Bool, true)  // scheduled
		snaptest.Put(e.Int, 1)      // one in-flight entry
		snaptest.Put(e.U64, 5)      // at
		snaptest.Put(e.Bool, false) // ... with no flit
	})
	s2 := sim.NewSimulator(1)
	got := New(s2, "chan_0", 4, 2)
	if err := loadChannel(noFlit, got, tab); err == nil ||
		!strings.Contains(err.Error(), "no flit") {
		t.Fatalf("err = %v, want missing-flit error", err)
	}

	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		s3 := sim.NewSimulator(1)
		fresh := New(s3, "chan_0", 4, 2)
		if err := loadChannel(data[:n], fresh, tab); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}

func TestCreditChannelStateRoundTrip(t *testing.T) {
	s := sim.NewSimulator(1)
	c := NewCredit(s, "cred_0", 3)
	c.SetSink(&creditCollector{s: s}, 0)
	c.Inject(types.Credit{VC: 1})
	c.Inject(types.Credit{VC: 0})
	const vcs = 2
	state := func(cc *CreditChannel) func(*snapshot.Codec) {
		return func(c *snapshot.Codec) { cc.State(c, vcs) }
	}
	data := snaptest.Save(state(c))

	s2 := sim.NewSimulator(1)
	got := NewCredit(s2, "cred_0", 3)
	d := snapshot.NewLoader(data)
	if got.State(d, vcs); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if len(got.pending)-got.head != 2 || got.pending[0].cr.VC != 1 || got.pending[1].cr.VC != 0 {
		t.Fatalf("restored credit queue %+v", got.pending)
	}
	if !bytes.Equal(snaptest.Save(state(got)), data) {
		t.Fatal("re-saved credit channel state is not byte-identical")
	}

	for _, n := range []int{0, len(data) / 2, len(data) - 1} {
		s3 := sim.NewSimulator(1)
		fresh := NewCredit(s3, "cred_0", 3)
		if err := snaptest.Load(data[:n], state(fresh)); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
