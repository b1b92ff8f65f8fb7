package router

import (
	"math"

	"supersim/internal/congestion"
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

// Stater is implemented by every router architecture: Collect feeds the
// message table of a saving walk, State codes the router against the table.
// Loading runs on a freshly built router of the identical configuration.
type Stater interface {
	Collect(t *types.MessageTable)
	State(c *snapshot.Codec, t *types.MessageTable)
}

func (q *flitQueue) collect(t *types.MessageTable) {
	for i := 0; i < q.n; i++ {
		t.Add(q.buf[(q.head+i)%len(q.buf)].Pkt.Msg)
	}
}

func (q *flitQueue) state(c *snapshot.Codec, t *types.MessageTable) {
	n := c.Len(q.n)
	if c.Loading() {
		q.buf, q.head, q.n = make([]*types.Flit, max(4, n)), 0, n
	}
	for i := 0; i < n; i++ {
		f := &q.buf[(q.head+i)%len(q.buf)]
		t.Flit(c, f)
		if c.Loading() && c.Err() == nil && *f == nil {
			c.Failf("flit queue entry %d has no flit", i)
		}
	}
}

func (dl *delayLine) collect(t *types.MessageTable) {
	for i := dl.head; i < len(dl.q); i++ {
		t.Add(dl.q[i].f.Pkt.Msg)
	}
}

func (dl *delayLine) state(c *snapshot.Codec, t *types.MessageTable, ports int) {
	c.Bool(&dl.scheduled)
	live := dl.q[dl.head:]
	snapshot.Slice(c, &live)
	if c.Loading() {
		dl.q, dl.head = live, 0
	}
	for i := range live {
		snapshot.Uint(c, &live[i].at)
		c.Index(&live[i].port, ports, "delay line output port")
		t.Flit(c, &live[i].f)
		if c.Loading() && c.Err() == nil && live[i].f == nil {
			c.Failf("delay line entry %d has no flit", i)
		}
	}
}

// stateResponse codes a routing decision. The zero Response (port 0, no VCs)
// is what an input VC holds before its head packet is routed.
func (b *base) stateResponse(c *snapshot.Codec, r *routing.Response) {
	c.Index(&r.Port, b.radix, "routing.Response.Port")
	if c.Loading() {
		r.VCs = nil // never write through a VC set aliased from the algorithm
	}
	snapshot.Slice(c, &r.VCs)
	for i := range r.VCs {
		c.Index(&r.VCs[i], b.vcs, "routing.Response.VCs")
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
	b.OrderState(c)
	c.FixedLen(len(b.downCred), "router ports")
	for port := range b.downCred {
		stateInts(c, b.downCred[port], "router port VCs")
	}
	congestion.StateTracker(c, b.sensor)
	c.Bool(&b.pipelineScheduled)
	c.U64(&b.flitsRouted)
}

func (iv *inputVC) state(c *snapshot.Codec, t *types.MessageTable, b *base) {
	iv.q.state(c, t)
	c.Int(&iv.routeState)
	b.stateResponse(c, &iv.resp)
	c.IndexOrNone(&iv.outPort, b.radix, "inputVC.outPort")
	c.IndexOrNone(&iv.outVC, b.vcs, "inputVC.outVC")
	if c.Loading() {
		iv.granted = false
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

func stateBools(c *snapshot.Codec, s []bool) {
	for i := range s {
		c.Bool(&s[i])
	}
}

// stateAllocation codes the VC-allocation and crossbar-scheduling state the
// IQ and IOQ pipelines share. holder and vcPending carry client numbers;
// vcRotate only ever counts up and is used modulo the pending count, so a
// negative one would index negatively.
func stateAllocation(c *snapshot.Codec, clients int, holder [][]int, vcPending *[]int, vcRotate *int, sched []*xbarSched) {
	for port := range holder {
		stateIndices(c, holder[port], c.IndexOrNone, clients, "output VC holder")
	}
	snapshot.Slice(c, vcPending)
	for i := range *vcPending {
		c.Index(&(*vcPending)[i], clients, "vcPending")
	}
	c.Index(vcRotate, math.MaxInt, "vcRotate")
	for _, sc := range sched {
		sc.state(c, clients)
	}
}

// Collect implements Stater for the IQ architecture.
func (r *IQ) Collect(t *types.MessageTable) {
	for i := range r.in {
		r.in[i].q.collect(t)
	}
	r.dl.collect(t)
}

// State implements Stater for the IQ architecture.
func (r *IQ) State(c *snapshot.Codec, t *types.MessageTable) {
	r.base.state(c)
	r.xbar.State(c)
	r.dl.state(c, t, r.radix)
	for i := range r.in {
		r.in[i].state(c, t, &r.base)
	}
	stateAllocation(c, len(r.in), r.holder, &r.vcPending, &r.vcRotate, r.sched)
	c.FixedLen(len(r.nextChanStart), "router channel-start slots")
	for i := range r.nextChanStart {
		snapshot.Uint(c, &r.nextChanStart[i])
	}
}

// Collect implements Stater for the OQ architecture.
func (r *OQ) Collect(t *types.MessageTable) {
	for i := range r.in {
		r.in[i].q.collect(t)
	}
	for i := range r.outQ {
		r.outQ[i].collect(t)
	}
	r.dl.collect(t)
}

// State implements Stater for the OQ architecture.
func (r *OQ) State(c *snapshot.Codec, t *types.MessageTable) {
	r.base.state(c)
	r.dl.state(c, t, r.radix)
	for i := range r.in {
		iv := &r.in[i]
		iv.q.state(c, t)
		c.Bool(&iv.routed)
		r.stateResponse(c, &iv.resp)
		c.IndexOrNone(&iv.outVC, r.vcs, "oqInput.outVC")
	}
	for i := range r.outQ {
		r.outQ[i].state(c, t)
	}
	stateInts(c, r.outOcc, "output occupancy")
	stateIndices(c, r.outOwner, c.IndexOrNone, len(r.in), "OQ.outOwner")
	stateBools(c, r.outBusy)
	stateIndices(c, r.outRR, c.Index, r.vcs, "OQ.outRR")
	for i := range r.transfer {
		snapshot.Uint(c, &r.transfer[i])
	}
}

// Collect implements Stater for the IOQ architecture.
func (r *IOQ) Collect(t *types.MessageTable) {
	for i := range r.in {
		r.in[i].q.collect(t)
	}
	for i := range r.outQ {
		r.outQ[i].collect(t)
	}
	r.dl.collect(t)
}

// State implements Stater for the IOQ architecture.
func (r *IOQ) State(c *snapshot.Codec, t *types.MessageTable) {
	r.base.state(c)
	r.xbar.State(c)
	r.dl.state(c, t, r.radix)
	for i := range r.in {
		r.in[i].state(c, t, &r.base)
	}
	stateAllocation(c, len(r.in), r.holder, &r.vcPending, &r.vcRotate, r.sched)
	for i := range r.outQ {
		r.outQ[i].state(c, t)
	}
	stateInts(c, r.outOcc, "output occupancy")
	stateBools(c, r.outBusy)
	stateIndices(c, r.outRR, c.Index, r.vcs, "IOQ.outRR")
}
