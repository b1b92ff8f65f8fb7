package channel

import (
	"supersim/internal/sim"
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
		q := &l.lanes[ln].q
		runs, arrivals := q.Live()
		nr := c.Len(len(runs))
		if c.Loading() {
			q.Clear()
		}
		var last sim.Tick // the previous run's tick
		for i := 0; i < nr && c.Err() == nil; i++ {
			var r sim.Run
			if !c.Loading() {
				r = runs[i]
			}
			snapshot.Uint(c, &r.At)
			r.N = c.Len(r.N)
			if c.Loading() && c.Err() == nil && r.N == 0 {
				c.Failf("%s: lane %d run %d has no arrival", l.Name(), ln, i)
			}
			for j := 0; j < r.N && c.Err() == nil; j++ {
				var a arrival
				if !c.Loading() {
					a, arrivals = arrivals[0], arrivals[1:]
				}
				l.stateArrival(c, t, vcs, ln, &a)
				if !c.Loading() || c.Err() != nil {
					continue
				}
				if i > 0 && j == 0 && r.At <= last {
					c.Failf("%s: lane %d run %d is not due after the one ahead of it", l.Name(), ln, i)
					return
				}
				q.Push(r.At, a)
				l.due[(r.At&l.mask)>>6] |= uint64(1) << (r.At & 63)
			}
			last = r.At
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
