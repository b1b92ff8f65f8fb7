package router

import (
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

// outputStage is the output-queue back end shared by the IOQ and OQ
// architectures: per-(port, VC) output queues, finite or infinite, drained
// onto the channel one flit per channel cycle as downstream (next hop)
// credits allow. Space is reserved when a flit starts toward a queue, so
// occupancy includes flits still crossing the router.
type outputStage struct {
	b         *base // the router this back end belongs to; set by its constructor
	outDepth  int   // per (port, vc); 0 = infinite
	chanClock *sim.Clock

	outQ    []flitQueue // [port*vcs+vc]
	outOcc  []int       // reserved occupancy incl. flits in flight to the queue
	outBusy []bool      // per port: listed in ready
	outRR   []int       // per port: round robin VC pointer

	// ready lists the ports armed to drain at the next channel edge, in
	// arming order; one evOutput is pending while it is non-empty. spare is
	// the list the handler swaps in while it drains a batch.
	ready, spare []int
}

func newOutputStage(b *base, depth int) outputStage {
	return outputStage{
		b:         b,
		outDepth:  depth,
		chanClock: sim.NewClock(b.chanPeriod),
		outQ:      make([]flitQueue, b.radix*b.vcs),
		outOcc:    make([]int, b.radix*b.vcs),
		outBusy:   make([]bool, b.radix),
		outRR:     make([]int, b.radix),
	}
}

// hasRoom reports whether output queue qi can reserve need more flits.
func (o *outputStage) hasRoom(qi, need int) bool {
	return o.outDepth == 0 || o.outDepth-o.outOcc[qi] >= need
}

// reserve claims one slot of (port, vc)'s queue for a flit starting toward it.
func (o *outputStage) reserve(now sim.Tick, port, vc int) {
	o.outOcc[o.b.client(port, vc)]++
	o.b.sensor.AddOutput(now, port, vc, 1)
}

// accept enqueues a flit that reached its output queue, (port, vc).
func (o *outputStage) accept(port, vc int, f *types.Flit) {
	o.outQ[o.b.client(port, vc)].push(f)
	o.scheduleOutput(port)
}

// receiveCredit accepts a downstream credit for an output port: the port's
// queues may drain again.
func (o *outputStage) receiveCredit(port int, c types.Credit) {
	o.b.returnDownstreamCredit(port, c.VC)
	o.scheduleOutput(port)
}

// scheduleOutput arms the port to drain at the next channel clock edge,
// unless it is armed already. The router holds one evOutput for every armed
// port, scheduled when the first one is armed: each arming before the batch
// runs computes the same edge, a drain at edge E can only arm for a later
// edge, and one event per port would have run back to back in arming order
// at that edge, which is the order drainReady keeps.
func (o *outputStage) scheduleOutput(port int) {
	if o.outBusy[port] {
		return
	}
	o.outBusy[port] = true
	o.ready = append(o.ready, port)
	if len(o.ready) > 1 {
		return
	}
	now := o.b.Sim().Now()
	t := sim.Time{Tick: o.chanClock.NextEdge(now.Tick), Eps: 2}
	if !now.Before(t) {
		t = sim.Time{Tick: o.chanClock.NextEdge(now.Tick + 1), Eps: 2}
	}
	o.b.Sim().Schedule(o.b.self, t, evOutput, nil)
}

// drainReady handles the router's evOutput event: it drains every armed
// port in arming order. Ports re-armed meanwhile go to a fresh list, and
// the first of them schedules the next evOutput.
func (o *outputStage) drainReady() {
	batch := o.ready
	o.ready = o.spare[:0]
	for _, port := range batch {
		o.drain(port)
	}
	o.spare = batch
}

// drain sends one flit from the port's output queues to the channel, round
// robin across VCs that have both a flit and a downstream credit.
func (o *outputStage) drain(port int) {
	b := o.b
	o.outBusy[port] = false
	now := b.Sim().Now().Tick
	for i := 0; i < b.vcs; i++ {
		vc := (o.outRR[port] + i) % b.vcs
		qi := b.client(port, vc)
		if o.outQ[qi].len() == 0 {
			continue
		}
		if b.downCred[port][vc] < 1 {
			b.tp.CreditStall()
			continue
		}
		f := o.outQ[qi].pop()
		if b.sp.Tracked(f) {
			// Output-queue residency: the wait for downstream credits.
			b.sp.Step(now, f, telemetry.SpanOutput)
		}
		b.takeDownstreamCredit(port, vc)
		o.outOcc[qi]--
		if o.outOcc[qi] < 0 {
			b.Panicf("output queue occupancy went negative on port %d vc %d", port, vc)
		}
		b.sensor.AddOutput(now, port, vc, -1)
		b.outCh[port].Inject(f, vc)
		o.outRR[port] = (vc + 1) % b.vcs
		// A slot freed: a blocked pipeline may proceed, and more flits may be
		// waiting to drain next cycle.
		b.schedulePipeline()
		for v := 0; v < b.vcs; v++ {
			if o.outQ[b.client(port, v)].len() > 0 {
				o.scheduleOutput(port)
				break
			}
		}
		return
	}
}

func (o *outputStage) verifyIdle() {
	for i := range o.outQ {
		if o.outQ[i].len() != 0 || o.outOcc[i] != 0 {
			o.b.Panicf("idle check: output queue %d holds %d flits (occ %d)",
				i, o.outQ[i].len(), o.outOcc[i])
		}
	}
}

// stateQueues codes the queues and their reserved occupancy; stateDrain is
// the other half. Two parts, because the OQ architecture's stream has its
// queue owners between them.
func (o *outputStage) stateQueues(c *snapshot.Codec, t *types.MessageTable) {
	for i := range o.outQ {
		o.outQ[i].state(c, t)
	}
	stateInts(c, o.outOcc, "output occupancy")
}

// stateDrain codes the drain scheduling state: the armed ports, from which
// a load rebuilds outBusy, and the VC round robin pointers.
func (o *outputStage) stateDrain(c *snapshot.Codec) {
	snapshot.Slice(c, &o.ready)
	if c.Loading() {
		clear(o.outBusy)
	}
	for i := range o.ready {
		c.Index(&o.ready[i], len(o.outBusy), "outputStage.ready")
		if !c.Loading() || c.Err() != nil {
			continue
		}
		if o.outBusy[o.ready[i]] {
			c.Failf("output port %d is armed twice", o.ready[i])
		}
		o.outBusy[o.ready[i]] = true
	}
	stateIndices(c, o.outRR, c.Index, o.b.vcs, "outputStage.outRR")
}
