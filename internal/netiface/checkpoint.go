package netiface

import (
	"math"

	"supersim/internal/snapshot"
	"supersim/internal/types"
)

// Checkpoint state for the network interface: the injection queue (packet
// references into the checkpoint's message table), the head packet's
// mid-injection cursor, per-VC downstream credits, the order checker, and
// the reassembly/statistics counters. The send queue is normalized (the
// consumed prefix before its head is not part of the stream, and a loaded
// queue starts at head 0). The interface's arrival line is coded by the
// simulation's walk, beside the interface.

// State codes the interface's mutable state.
func (n *Interface) State(c *snapshot.Codec, t *types.MessageTable) {
	n.OrderState(c, n)
	queued := n.sendQ.Live()
	snapshot.Slice(c, &queued)
	if c.Loading() {
		n.sendQ.Reset(queued)
	}
	headFlits := 1 // an empty queue keeps the cursor at flit 0
	for i := range queued {
		t.Packet(c, &queued[i])
		if queued[i] == nil {
			if c.Err() == nil {
				c.Failf("interface %s: injection queue entry %d has no packet", n.Name(), i)
			}
			return
		}
		if i == 0 {
			headFlits = queued[0].Size()
		}
	}
	c.Index(&n.curFlit, headFlits, "Interface.curFlit")
	c.IndexOrNone(&n.curVC, n.vcs, "Interface.curVC")
	// A rotation counter: it only counts up and is used modulo the candidate
	// count, so a negative one would index negatively.
	c.Index(&n.injectRR, math.MaxInt, "Interface.injectRR")
	c.Bool(&n.scheduled)
	c.FixedLen(len(n.downCred), "interface VCs")
	for vc := range n.downCred {
		c.Int(&n.downCred[vc])
	}
	n.checker.State(c)
	c.Int(&n.partial)
	c.U64(&n.flitsSent)
	c.U64(&n.flitsReceived)
}
