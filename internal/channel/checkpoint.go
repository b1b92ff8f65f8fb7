package channel

import (
	"supersim/internal/snapshot"
	"supersim/internal/types"
)

// Checkpoint state for channels. In-flight flits are stored as (delivery
// tick, flit reference) pairs against the checkpoint's message table; the
// FIFO is normalized (the consumed prefix before head is not part of the
// stream, and a loaded FIFO starts at head 0) so the bytes do not depend on
// compaction history.

// Collect adds every message with a flit in flight on this channel to the
// checkpoint's message table.
func (ch *Channel) Collect(t *types.MessageTable) {
	for i := ch.head; i < len(ch.pending); i++ {
		t.Add(ch.pending[i].f.Pkt.Msg)
	}
}

// State codes the channel's mutable state.
func (ch *Channel) State(c *snapshot.Codec, t *types.MessageTable) {
	ch.OrderState(c)
	snapshot.Uint(c, &ch.nextSlot)
	c.U64(&ch.injected)
	c.Bool(&ch.scheduled)
	live := ch.pending[ch.head:]
	snapshot.Slice(c, &live)
	if c.Loading() {
		ch.pending, ch.head = live, 0
	}
	for i := range live {
		snapshot.Uint(c, &live[i].at)
		t.Flit(c, &live[i].f)
		if c.Loading() && c.Err() == nil && live[i].f == nil {
			c.Failf("channel %s: in-flight entry %d has no flit", ch.Name(), i)
			return
		}
	}
}

// State codes the credit channel's mutable state. vcs is the network's VC
// count: the sink indexes its credit counters with an in-flight credit's VC.
func (cc *CreditChannel) State(c *snapshot.Codec, vcs int) {
	cc.OrderState(c)
	c.Bool(&cc.scheduled)
	live := cc.pending[cc.head:]
	snapshot.Slice(c, &live)
	if c.Loading() {
		cc.pending, cc.head = live, 0
	}
	for i := range live {
		snapshot.Uint(c, &live[i].at)
		c.Index(&live[i].cr.VC, vcs, "Credit.VC")
	}
}
