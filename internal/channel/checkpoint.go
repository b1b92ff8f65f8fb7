package channel

import (
	"supersim/internal/snapshot"
	"supersim/internal/types"
)

// Checkpoint state for channels and arrival lines. A channel keeps only its
// send accounting; what is in flight is in its receiver's arrival line.
// In-flight flits are stored as references against the checkpoint's
// message table. Lanes are normalized (the consumed prefix before a FIFO's
// head is not part of the stream, and a loaded lane starts at head 0) so
// the bytes do not depend on compaction history.

// State codes the channel's mutable state.
func (ch *Channel) State(c *snapshot.Codec) {
	snapshot.Uint(c, &ch.nextSlot)
	c.U64(&ch.injected)
}

// State codes the line's scheduling identity and its arrivals, lane by lane
// and run by run: each run's tick, then its arrivals. vcs is the network's
// VC count: the receiver indexes its input buffers with an arriving flit's
// VC and its credit counters with an arriving credit's. A loaded line sets
// the due bit of every tick it holds arrivals for; the snapshot's event
// queue holds their events.
func (l *Line) State(c *snapshot.Codec, t *types.MessageTable, vcs int) {
	l.OrderState(c, l)
	c.FixedLen(len(l.lanes), "arrival line lanes")
	if c.Loading() {
		clear(l.due)
	}
	for ln := range l.lanes {
		lane := &l.lanes[ln]
		runs, q := lane.runs.Live(), lane.q.Live()
		nr := c.Len(len(runs))
		if c.Loading() {
			lane.runs.Reset(runs[:0])
			lane.q.Reset(q[:0])
		}
		for i := 0; i < nr && c.Err() == nil; i++ {
			var r run
			if !c.Loading() {
				r = runs[i]
			}
			snapshot.Uint(c, &r.at)
			r.n = c.Len(r.n)
			if c.Loading() && c.Err() == nil && r.n == 0 {
				c.Failf("%s: lane %d run %d has no arrival", l.Name(), ln, i)
			}
			for j := 0; j < r.n && c.Err() == nil; j++ {
				var a arrival
				if !c.Loading() {
					a, q = q[0], q[1:]
				}
				l.stateArrival(c, t, vcs, ln, &a)
				if !c.Loading() || c.Err() != nil {
					continue
				}
				if i > 0 && j == 0 && r.at <= lane.runs.Back().at {
					c.Failf("%s: lane %d run %d is not due after the one ahead of it", l.Name(), ln, i)
					return
				}
				lane.push(r.at, a)
				l.due[(r.at&l.mask)>>6] |= uint64(1) << (r.at & 63)
			}
		}
	}
}

// stateArrival codes one arrival of lane ln: its inbound index, its VC,
// then a flit's reference.
func (l *Line) stateArrival(c *snapshot.Codec, t *types.MessageTable, vcs, ln int, a *arrival) {
	in := int(a.in)
	c.Index(&in, len(l.in), "arrival inbound index")
	if c.Err() != nil {
		return
	}
	a.in = int32(in)
	vc := int(a.vc)
	if l.in[in].credit {
		c.Index(&vc, vcs, "Credit.VC")
	} else {
		c.Index(&vc, vcs, "flit arrival VC")
		t.Flit(c, &a.f)
	}
	a.vc = int32(vc)
	switch {
	case !c.Loading() || c.Err() != nil:
	case int(l.in[in].lane) != ln:
		c.Failf("%s: an arrival in lane %d is from a channel of lane %d", l.Name(), ln, l.in[in].lane)
	case !l.in[in].credit && a.f == nil:
		c.Failf("%s: a flit arrival has no flit", l.Name())
	}
}
