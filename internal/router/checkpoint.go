package router

import (
	"supersim/internal/routing"
	"supersim/internal/sim"
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
// downstream credits, the congestion sensor and the pipeline's armed flag.
func (b *base) state(c *snapshot.Codec) {
	b.OrderState(c, b.self)
	c.FixedLen(len(b.downCred), "router ports")
	for port := range b.downCred {
		stateInts(c, b.downCred[port], "router port VCs")
	}
	b.sensor.State(c)
	c.Bool(&b.pipelineScheduled)
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

// state codes a delay line's live entries, each as its due tick and its
// value by stateV. A loaded line starts at head 0 and has its event pending
// exactly when it holds entries, which is when the saved one had.
func (d *delayLine[T]) state(c *snapshot.Codec, what string, stateV func(i int, v *T)) {
	runs, vals := d.q.Live()
	n := c.Len(len(vals))
	if c.Loading() {
		d.q.Clear()
	}
	var at sim.Tick
	left := 0 // values of the saved run at tick at not yet coded
	for i := 0; i < n && c.Err() == nil; i++ {
		var v T
		if !c.Loading() {
			for ; left == 0; runs = runs[1:] {
				at, left = runs[0].At, runs[0].N
			}
			left--
			v = vals[i]
		}
		prev := at
		snapshot.Uint(c, &at)
		if c.Loading() && c.Err() == nil && i > 0 && at < prev {
			c.Failf("%s entry %d is due before the one ahead of it", what, i)
		}
		stateV(i, &v)
		if c.Loading() && c.Err() == nil {
			d.q.Push(at, v)
		}
	}
	if c.Loading() {
		d.scheduled = d.q.Len() > 0
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
