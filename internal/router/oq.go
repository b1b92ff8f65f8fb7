package router

import (
	"supersim/internal/config"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

func init() {
	Registry.Register("output_queued", func(s *sim.Simulator, name string, cfg *config.Settings, p Params) Router {
		return NewOQ(s, name, cfg, p)
	})
}

// oqInput is the per-(input port, VC) state of the OQ architecture.
type oqInput struct {
	q      flitQueue
	routed bool
	resp   routing.Response
	outVC  int
}

// OQ is the idealistic output-queued router architecture: zero head-of-line
// blocking and no scheduling conflicts. All input ports can simultaneously
// put a packet in any output queue; flits wait in the output queues until
// downstream credits are available. Output queues may be infinite
// (output_queue_depth = 0) or finite. The model is deliberately devoid of VC
// allocation and crossbar scheduling, which also makes it the fastest
// architecture to simulate.
type OQ struct {
	base
	queueLat sim.Tick // input-queue to output-queue transfer latency

	in       []oqInput
	out      outputStage
	outOwner []int      // [port*vcs+vc] input client streaming a packet, -1
	transfer []sim.Tick // per client: tick of last transfer (rate limit)
}

// NewOQ builds an output-queued router from its settings block.
func NewOQ(s *sim.Simulator, name string, cfg *config.Settings, p Params) *OQ {
	r := &OQ{base: newBase(s, name, cfg, p)}
	r.bind(r)
	r.dl.ev = evTransferArrive
	r.queueLat = sim.Tick(cfg.UIntOr("queue_latency", 1))
	if r.queueLat < 1 {
		r.Panicf("queue_latency must be at least one tick")
	}
	r.out = newOutputStage(&r.base, int(cfg.UIntOr("output_queue_depth", 0)))
	r.in = make([]oqInput, r.radix*r.vcs)
	for i := range r.in {
		r.in[i].outVC = -1
	}
	r.outOwner = make([]int, r.radix*r.vcs)
	for i := range r.outOwner {
		r.outOwner[i] = -1
	}
	r.transfer = make([]sim.Tick, r.radix*r.vcs)
	for i := range r.transfer {
		r.transfer[i] = ^sim.Tick(0)
	}
	return r
}

// ReceiveFlit accepts a flit from an input channel.
func (r *OQ) ReceiveFlit(port, vc int, f *types.Flit) {
	r.receive(&r.in[r.arrivalClient(port, vc, f)].q, port, vc, f)
	r.schedulePipeline()
}

// ReceiveCredit accepts a downstream credit for an output port.
func (r *OQ) ReceiveCredit(port int, c types.Credit) { r.out.receiveCredit(port, c) }

// ProcessEvent dispatches the router's events.
func (r *OQ) ProcessEvent(ev *sim.Event) {
	switch ev.Type {
	case evPipeline:
		r.pipelineScheduled = false
		r.pipeline()
	case evTransferArrive:
		for fl, ok := r.landFlight(); ok; fl, ok = r.landFlight() {
			r.out.accept(int(fl.port), int(fl.vc), fl.f)
		}
	case evOutput:
		r.out.drainReady()
	default:
		r.Panicf("unknown event type %d", ev.Type)
	}
}

// pipeline transfers flits from input queues to output queues, one flit per
// input VC per core cycle, with no conflicts between inputs.
func (r *OQ) pipeline() {
	now := r.Sim().Now().Tick
	progress := false
	for clientIdx := range r.in {
		iv := &r.in[clientIdx]
		f := iv.q.peek()
		if f == nil {
			continue
		}
		if r.transfer[clientIdx] == now {
			progress = true // already moved one this cycle; revisit next cycle
			continue
		}
		if f.Head && !iv.routed {
			inPort := clientIdx / r.vcs
			resp := r.algs[inPort].Route(now, f.Pkt, inPort, clientIdx%r.vcs)
			r.validateResponse(resp, f.Pkt)
			iv.resp = resp
			iv.routed = true
		}
		if f.Head && iv.outVC < 0 {
			// Acquire an output VC for the whole packet: output queues are
			// enqueued packet-atomically (wormhole), so the queue must not
			// be streaming another input's packet. Among the registered,
			// unowned VCs take the least occupied.
			best, bestOcc := -1, 0
			for _, vc := range iv.resp.VCs {
				qi := r.client(iv.resp.Port, vc)
				if r.outOwner[qi] != -1 {
					continue
				}
				if occ := r.out.outOcc[qi]; best == -1 || occ < bestOcc {
					best, bestOcc = vc, occ
				}
			}
			if best == -1 {
				continue // all registered VCs busy with other packets
			}
			iv.outVC = best
			r.outOwner[r.client(iv.resp.Port, best)] = clientIdx
		}
		out := r.client(iv.resp.Port, iv.outVC)
		if !r.out.hasRoom(out, 1) {
			continue // output queue full; drain will wake us
		}
		// Transfer one flit.
		iv.q.pop()
		if r.sp.Tracked(f) {
			// Arrival to transfer start: routing (synchronous here), output
			// VC acquisition, and the wait for output-queue space — the OQ
			// analogue of VC allocation.
			r.sp.Step(now, f, telemetry.SpanVCAlloc)
		}
		if f.Head {
			f.Pkt.HopCount++
		}
		r.out.reserve(now, iv.resp.Port, iv.outVC)
		r.forwarded(clientIdx)
		r.transfer[clientIdx] = now
		r.startFlight(now+r.queueLat, f, iv.resp.Port, iv.outVC)
		if f.Tail {
			r.outOwner[out] = -1
			iv.routed = false
			iv.outVC = -1
			iv.resp = routing.Response{}
		}
		progress = true
	}
	if progress {
		r.schedulePipeline()
	}
}

// HOL reports the head-of-line state of one input VC for the stall
// diagnostician. The OQ architecture has no VC-allocation pipeline; a routed
// head without an output VC waits for an unowned output queue, and its
// "holder" is the input client currently streaming a packet into one of the
// wanted queues.
func (r *OQ) HOL(port, vc int) HOLState {
	iv := &r.in[r.client(port, vc)]
	st := HOLState{Occupancy: iv.q.len(), OutPort: -1, OutVC: -1, WantPort: -1, HolderPort: -1, HolderVC: -1, OutDepth: r.out.outDepth}
	f := iv.q.peek()
	if f == nil {
		st.Phase = HOLEmpty
		return st
	}
	st.Flit = f
	switch {
	case iv.outVC >= 0:
		st.Phase = HOLAllocated
		st.OutPort, st.OutVC = iv.resp.Port, iv.outVC
		st.Credits = r.downCred[iv.resp.Port][iv.outVC]
		st.CreditCap = r.downCap[iv.resp.Port]
		st.OutQueued = r.out.outOcc[r.client(iv.resp.Port, iv.outVC)]
	case iv.routed:
		st.Phase = HOLAwaitingVC
		st.WantPort = iv.resp.Port
		st.WantVCs = iv.resp.VCs
		for _, w := range iv.resp.VCs {
			if r.outOwner[r.client(iv.resp.Port, w)] == -1 {
				return st // an unowned queue exists; the wait is transient
			}
		}
		owner := r.outOwner[r.client(iv.resp.Port, iv.resp.VCs[0])]
		st.HolderPort, st.HolderVC = owner/r.vcs, owner%r.vcs
	default:
		st.Phase = HOLRouting
	}
	return st
}

// VerifyIdle implements the post-drain quiescence check.
func (r *OQ) VerifyIdle() {
	for client := range r.in {
		if n := r.in[client].q.len(); n != 0 {
			r.Panicf("idle check: input VC %d holds %d flits", client, n)
		}
	}
	r.out.verifyIdle()
	for i, owner := range r.outOwner {
		if owner != -1 {
			r.Panicf("idle check: output queue %d owned by client %d", i, owner)
		}
	}
	r.verifyIdle()
}

// State implements Router.
func (r *OQ) State(c *snapshot.Codec, t *types.MessageTable) {
	r.base.state(c)
	r.stateFlights(c, t)
	for i := range r.in {
		iv := &r.in[i]
		iv.q.state(c, t)
		c.Bool(&iv.routed)
		stateResponse(c, &iv.resp, r.radix, r.vcs)
		c.IndexOrNone(&iv.outVC, r.vcs, "oqInput.outVC")
	}
	r.out.stateQueues(c, t)
	stateIndices(c, r.outOwner, c.IndexOrNone, len(r.in), "OQ.outOwner")
	r.out.stateDrain(c)
	for i := range r.transfer {
		snapshot.Uint(c, &r.transfer[i])
	}
}
