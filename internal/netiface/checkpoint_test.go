package netiface

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
	"supersim/internal/types"
)

// stalledIface builds an interface stalled mid-message: one VC, one credit,
// a 4-flit message in two packets — after the run, the head packet is half
// sent and the second packet is still queued.
func stalledIface(t *testing.T) *Interface {
	t.Helper()
	s, n, stub, _ := rig(t, 1, 1, nil)
	n.SendMessage(msg(9, 0, 5, 4, 2))
	s.Run()
	if len(stub.flits) != 1 || n.QueueDepth() != 2 {
		t.Fatalf("rig not stalled as expected: %d flits, depth %d", len(stub.flits), n.QueueDepth())
	}
	return n
}

func saveIface(n *Interface, tab *types.MessageTable) []byte {
	return snaptest.Save(func(c *snapshot.Codec) { n.State(c, tab) })
}

func loadIface(data []byte, n *Interface, tab *types.MessageTable) error {
	return snaptest.Load(data, func(c *snapshot.Codec) { n.State(c, tab) })
}

// anyIndex admits every terminal, application and VC number the tests use.
var anyIndex = types.Bounds{Terminals: 64, Apps: 64, VCs: 64}

func TestInterfaceStateRoundTrip(t *testing.T) {
	n := stalledIface(t)
	tab := types.NewMessageTable()
	n.Collect(tab)
	if tab.Len() != 1 {
		t.Fatalf("collected %d messages, want 1", tab.Len())
	}
	data := saveIface(n, tab)

	rtab := types.NewMessageTable()
	if err := snaptest.Load(
		snaptest.Save(func(c *snapshot.Codec) { tab.State(c, nil, anyIndex) }),
		func(c *snapshot.Codec) { rtab.State(c, nil, anyIndex) }); err != nil {
		t.Fatal(err)
	}
	_, got, _, _ := rig(t, 1, 1, nil)
	d := snapshot.NewLoader(data)
	if got.State(d, rtab); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.QueueDepth() != 2 || got.FlitsSent() != 1 || got.curFlit != n.curFlit {
		t.Fatalf("restored interface: depth %d sent %d curFlit %d",
			got.QueueDepth(), got.FlitsSent(), got.curFlit)
	}
	if got.InjectionCredits()[0] != 0 {
		t.Fatalf("restored credits %v, want exhausted", got.InjectionCredits())
	}
	if !bytes.Equal(saveIface(got, rtab), data) {
		t.Fatal("re-saved interface state is not byte-identical")
	}
}

func TestInterfaceLoadRejectsMismatchedBuild(t *testing.T) {
	n := stalledIface(t)
	tab := types.NewMessageTable()
	n.Collect(tab)
	data := saveIface(n, tab)

	// A rebuild with a different VC count must be rejected.
	_, wide, _, _ := rig(t, 2, 1, nil)
	if err := loadIface(data, wide, tab); err == nil ||
		!strings.Contains(err.Error(), "VCs") {
		t.Fatalf("VC mismatch: err = %v", err)
	}

	// An injection-queue entry whose packet reference is absent.
	noPacket := snaptest.Save(func(c *snapshot.Codec) {
		n.OrderState(c)
		snaptest.Put(c.Int, 1)      // one queued packet
		snaptest.Put(c.Bool, false) // ... with no message reference
	})
	_, got, _, _ := rig(t, 1, 1, nil)
	if err := loadIface(noPacket, got, tab); err == nil ||
		!strings.Contains(err.Error(), "no packet") {
		t.Fatalf("missing packet: err = %v", err)
	}

	for _, nbytes := range []int{0, 1, len(data) / 2, len(data) - 1} {
		_, fresh, _, _ := rig(t, 1, 1, nil)
		if err := loadIface(data[:nbytes], fresh, tab); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", nbytes)
		}
	}
}
