package router

import (
	"supersim/internal/routing"
	"supersim/internal/snapshot"
	"supersim/internal/types"
)

// Checkpoint state for the router architectures. Flits buffered inside a
// router are stored as references into the checkpoint's message table;
// routing responses are stored by value (port + VC set) — the VC sets
// algorithms hand out are immutable, so restoring the values is equivalent
// to restoring the aliases. Ring buffers and delay lines are normalized (only
// the live entries are in the stream, and a loaded one starts at head 0) so
// the bytes do not depend on compaction or wrap history.

func (q *flitQueue) state(c *snapshot.Codec, t *types.MessageTable) {
	n := c.Len(q.n)
	if c.Loading() {
		// The ring stays a power of two long: flitQueue masks, not divides.
		size := 4
		for size < n {
			size *= 2
		}
		q.buf, q.head, q.n = make([]*types.Flit, size), 0, n
	}
	for i := 0; i < n; i++ {
		f := q.at(i)
		t.Flit(c, f)
		if c.Loading() && c.Err() == nil && *f == nil {
			c.Failf("flit queue entry %d has no flit", i)
		}
	}
}

// stateResponse codes a routing decision. The zero Response (port 0, no VCs)
// is what an input VC holds before its head packet is routed.
func stateResponse(c *snapshot.Codec, r *routing.Response, ports, vcs int) {
	c.Index(&r.Port, ports, "routing.Response.Port")
	if c.Loading() {
		r.VCs = nil // never write through a VC set aliased from the algorithm
	}
	snapshot.Slice(c, &r.VCs)
	for i := range r.VCs {
		c.Index(&r.VCs[i], vcs, "routing.Response.VCs")
	}
}

// state codes one output port's crossbar scheduler; clients is the number of
// input VCs, the range its client IDs index.
func (x *xbarSched) state(c *snapshot.Codec, clients int) {
	snapshot.Slice(c, &x.contenders)
	for i := range x.contenders {
		c.Index(&x.contenders[i], clients, "xbarSched.contenders")
	}
	c.IndexOrNone(&x.lastGrant, clients, "xbarSched.lastGrant")
	c.IndexOrNone(&x.locked, clients, "xbarSched.locked")
}

// state codes the plumbing shared by all architectures: scheduling identity,
// downstream credits, the congestion sensor, and counters.
func (b *base) state(c *snapshot.Codec) {
	b.OrderState(c, b.self)
	c.FixedLen(len(b.downCred), "router ports")
	for port := range b.downCred {
		stateInts(c, b.downCred[port], "router port VCs")
	}
	b.sensor.State(c)
	c.Bool(&b.pipelineScheduled)
	c.U64(&b.flitsRouted)
}

// stateFlights codes the internal datapath's delay line: each flit's output
// port and VC, then its reference.
func (b *base) stateFlights(c *snapshot.Codec, t *types.MessageTable) {
	b.dl.state(c, "delay line", func(i int, fl *flight) {
		port, vc := int(fl.port), int(fl.vc)
		c.Index(&port, b.radix, "delay line output port")
		c.Index(&vc, b.vcs, "delay line output VC")
		fl.port, fl.vc = int32(port), int32(vc)
		t.Flit(c, &fl.f)
		if c.Loading() && c.Err() == nil && fl.f == nil {
			c.Failf("delay line entry %d has no flit", i)
		}
	})
}

// state codes a delay line's live entries, each value by stateV. A loaded
// line starts at head 0 and has its event pending exactly when it holds
// entries, which is when the saved one had.
func (d *delayLine[T]) state(c *snapshot.Codec, what string, stateV func(i int, v *T)) {
	live := d.q.Live()
	snapshot.Slice(c, &live)
	if c.Loading() {
		d.q.Reset(live)
		d.scheduled = len(live) > 0
	}
	for i := range live {
		snapshot.Uint(c, &live[i].at)
		if c.Loading() && c.Err() == nil && i > 0 && live[i].at < live[i-1].at {
			c.Failf("%s entry %d is due before the one ahead of it", what, i)
		}
		stateV(i, &live[i].v)
	}
}

// stateInts codes a fixed-size (per-port, per-VC or per-client) int array.
func stateInts(c *snapshot.Codec, s []int, what string) {
	c.FixedLen(len(s), what)
	for i := range s {
		c.Int(&s[i])
	}
}

// stateIndices is stateInts for an array of slice indices: index is c.Index
// or c.IndexOrNone, so every entry is range-checked against bound on load.
func stateIndices(c *snapshot.Codec, s []int, index func(p *int, bound int, what string), bound int, what string) {
	c.FixedLen(len(s), what)
	for i := range s {
		index(&s[i], bound, what)
	}
}
