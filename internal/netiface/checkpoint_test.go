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

// stateOf codes an interface after its simulator, as the simulation's walk
// does, against a fresh message table.
func stateOf(n *Interface) func(*snapshot.Codec) {
	return func(c *snapshot.Codec) {
		n.Sim().State(c)
		n.State(c, types.NewMessageTable(nil, anyIndex))
	}
}

// anyIndex admits every terminal, application and VC number the tests use.
var anyIndex = types.Bounds{Terminals: 64, Apps: 64}

func TestInterfaceStateRoundTrip(t *testing.T) {
	n := stalledIface(t)
	data := snaptest.Save(stateOf(n))

	_, got, _, _ := rig(t, 1, 1, nil)
	d := snapshot.NewLoader(data)
	if stateOf(got)(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.QueueDepth() != 2 || got.FlitsSent() != 1 || got.curFlit != n.curFlit {
		t.Fatalf("restored interface: depth %d sent %d curFlit %d",
			got.QueueDepth(), got.FlitsSent(), got.curFlit)
	}
	// The queued packets are one message's two, defined at the first.
	if q := got.sendQ.Live(); q[0].Msg != q[1].Msg || q[0].Msg.ID != 9 || q[0].ID != 0 || q[1].ID != 1 {
		t.Fatalf("restored queue %v does not hold message 9's two packets", q)
	}
	if got.InjectionCredits()[0] != 0 {
		t.Fatalf("restored credits %v, want exhausted", got.InjectionCredits())
	}
	if !bytes.Equal(snaptest.Save(stateOf(got)), data) {
		t.Fatal("re-saved interface state is not byte-identical")
	}
}

func TestInterfaceLoadRejectsMismatchedBuild(t *testing.T) {
	n := stalledIface(t)
	data := snaptest.Save(stateOf(n))

	// A rebuild with a different VC count must be rejected.
	_, wide, _, _ := rig(t, 2, 1, nil)
	if err := snaptest.Load(data, stateOf(wide)); err == nil ||
		!strings.Contains(err.Error(), "VCs") {
		t.Fatalf("VC mismatch: err = %v", err)
	}

	// An injection-queue entry whose packet reference is absent.
	noPacket := snaptest.Save(func(c *snapshot.Codec) {
		n.Sim().State(c)
		n.OrderState(c, n)
		snaptest.Put(c.Int, 1) // one queued packet
		snaptest.Put(c.Int, 0) // ... with no message reference
	})
	_, got, _, _ := rig(t, 1, 1, nil)
	if err := snaptest.Load(noPacket, stateOf(got)); err == nil ||
		!strings.Contains(err.Error(), "no packet") {
		t.Fatalf("missing packet: err = %v", err)
	}

	for _, nbytes := range []int{0, 1, len(data) / 2, len(data) - 1} {
		_, fresh, _, _ := rig(t, 1, 1, nil)
		if err := snaptest.Load(data[:nbytes], stateOf(fresh)); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", nbytes)
		}
	}
}
