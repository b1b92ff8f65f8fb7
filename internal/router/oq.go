package router

import (
	"supersim/internal/config"
	"supersim/internal/routing"
	"supersim/internal/sim"
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
	queueLat  sim.Tick // input-queue to output-queue transfer latency
	outDepth  int      // per (port, vc); 0 = infinite
	chanClock *sim.Clock

	dl       delayLine
	in       []oqInput
	outQ     []flitQueue // [port*vcs+vc]
	outOcc   []int       // reserved occupancy incl. in-flight transfers
	outOwner []int       // [port*vcs+vc] input client streaming a packet, -1
	outBusy  []bool      // per port: drain event scheduled
	outRR    []int       // per port: round robin VC pointer
	transfer []sim.Tick  // per client: tick of last transfer (rate limit)
}

// NewOQ builds an output-queued router from its settings block.
func NewOQ(s *sim.Simulator, name string, cfg *config.Settings, p Params) *OQ {
	r := &OQ{base: newBase(s, name, cfg, p)}
	r.queueLat = sim.Tick(cfg.UIntOr("queue_latency", 1))
	if r.queueLat < 1 {
		r.Panicf("queue_latency must be at least one tick")
	}
	r.outDepth = int(cfg.UIntOr("output_queue_depth", 0))
	r.chanClock = sim.NewClock(r.chanPeriod, 0)
	r.in = make([]oqInput, r.radix*r.vcs)
	for i := range r.in {
		r.in[i].outVC = -1
	}
	r.outQ = make([]flitQueue, r.radix*r.vcs)
	r.outOcc = make([]int, r.radix*r.vcs)
	r.outOwner = make([]int, r.radix*r.vcs)
	for i := range r.outOwner {
		r.outOwner[i] = -1
	}
	r.outBusy = make([]bool, r.radix)
	r.outRR = make([]int, r.radix)
	r.transfer = make([]sim.Tick, r.radix*r.vcs)
	for i := range r.transfer {
		r.transfer[i] = ^sim.Tick(0)
	}
	return r
}

func (r *OQ) client(port, vc int) int { return port*r.vcs + vc }

// ReceiveFlit accepts a flit from an input channel.
func (r *OQ) ReceiveFlit(port int, f *types.Flit) {
	r.checkPort(port)
	if f.VC < 0 || f.VC >= r.vcs {
		r.Panicf("%v arrived on unregistered VC", f)
	}
	iv := &r.in[r.client(port, f.VC)]
	if iv.q.len() >= r.bufDepth {
		r.Panicf("input buffer overrun on port %d vc %d", port, f.VC)
	}
	iv.q.push(f)
	r.noteArrival(port, f.VC)
	r.schedulePipeline()
}

// ReceiveCredit accepts a downstream credit for an output port.
func (r *OQ) ReceiveCredit(port int, c types.Credit) {
	r.checkPort(port)
	r.returnDownstreamCredit(port, c.VC)
	r.scheduleOutput(port)
}

func (r *OQ) schedulePipeline() {
	if r.pipelineScheduled {
		return
	}
	now := r.Sim().Now()
	t := sim.Time{Tick: r.coreClock.NextEdge(now.Tick), Eps: 1}
	if !now.Before(t) {
		t = sim.Time{Tick: r.coreClock.NextEdge(now.Tick + 1), Eps: 1}
	}
	r.pipelineScheduled = true
	r.Sim().Schedule(r, t, evPipeline, nil)
}

func (r *OQ) scheduleOutput(port int) {
	if r.outBusy[port] {
		return
	}
	now := r.Sim().Now()
	t := sim.Time{Tick: r.chanClock.NextEdge(now.Tick), Eps: 2}
	if !now.Before(t) {
		t = sim.Time{Tick: r.chanClock.NextEdge(now.Tick + 1), Eps: 2}
	}
	r.outBusy[port] = true
	r.Sim().Schedule(r, t, evOutput, port)
}

// ProcessEvent dispatches the router's events.
func (r *OQ) ProcessEvent(ev *sim.Event) {
	switch ev.Type {
	case evPipeline:
		r.pipelineScheduled = false
		r.pipeline()
	case evTransferArrive:
		r.drainFlights()
	case evOutput:
		port := ev.Context.(int)
		r.outBusy[port] = false
		r.drain(port)
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
				if occ := r.outOcc[qi]; best == -1 || occ < bestOcc {
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
		if r.outDepth > 0 && r.outOcc[out] >= r.outDepth {
			continue // output queue full; drain will wake us
		}
		// Transfer one flit.
		iv.q.pop()
		if r.sp.Tracked(f) {
			// Arrival to transfer start: routing (synchronous here), output
			// VC acquisition, and the wait for output-queue space — the OQ
			// analogue of VC allocation.
			r.sp.Step(r.Sim(), now, f, telemetry.SpanVCAlloc)
		}
		f.VC = iv.outVC
		if f.Head {
			f.Pkt.HopCount++
		}
		r.outOcc[out]++
		r.sensor.AddOutput(now, iv.resp.Port, iv.outVC, 1)
		r.sendCreditUpstream(clientIdx/r.vcs, clientIdx%r.vcs)
		r.transfer[clientIdx] = now
		r.noteRouted()
		r.pushFlight(now+r.queueLat, f, iv.resp.Port)
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

// pushFlight enqueues a queue-to-queue transfer, arming the delay line.
func (r *OQ) pushFlight(at sim.Tick, f *types.Flit, port int) {
	r.dl.push(at, f, port)
	if !r.dl.scheduled {
		r.dl.scheduled = true
		r.Sim().Schedule(r, sim.Time{Tick: at}, evTransferArrive, nil)
	}
}

// drainFlights moves every transfer completing now into its output queue.
func (r *OQ) drainFlights() {
	now := r.Sim().Now().Tick
	for {
		at, ok := r.dl.next()
		if !ok {
			r.dl.scheduled = false
			return
		}
		if at > now {
			r.Sim().Schedule(r, sim.Time{Tick: at}, evTransferArrive, nil)
			return
		}
		fl := r.dl.pop()
		if r.sp.Tracked(fl.f) {
			// Queue-to-queue transfer ends at output-queue entry.
			r.sp.Step(r.Sim(), now, fl.f, telemetry.SpanXbar)
		}
		r.outQ[r.client(fl.port, fl.f.VC)].push(fl.f)
		r.scheduleOutput(fl.port)
	}
}

// drain sends one flit from the port's output queues to the channel, round
// robin across VCs that have both a flit and a downstream credit.
func (r *OQ) drain(port int) {
	now := r.Sim().Now().Tick
	sent := false
	for i := 0; i < r.vcs; i++ {
		vc := (r.outRR[port] + i) % r.vcs
		qi := r.client(port, vc)
		if r.outQ[qi].len() == 0 {
			continue
		}
		if r.downCred[port][vc] < 1 {
			r.noteCreditStall()
			continue
		}
		f := r.outQ[qi].pop()
		if r.sp.Tracked(f) {
			// Output-queue residency: the wait for downstream credits.
			r.sp.Step(r.Sim(), now, f, telemetry.SpanOutput)
		}
		r.takeDownstreamCredit(port, vc)
		r.outOcc[qi]--
		if r.outOcc[qi] < 0 {
			r.Panicf("output queue occupancy went negative on port %d vc %d", port, vc)
		}
		r.sensor.AddOutput(now, port, vc, -1)
		r.outCh[port].Inject(f)
		r.outRR[port] = (vc + 1) % r.vcs
		sent = true
		break
	}
	if sent {
		// A slot freed: blocked inputs may proceed, and more flits may be
		// waiting to drain.
		r.schedulePipeline()
		for vc := 0; vc < r.vcs; vc++ {
			if r.outQ[r.client(port, vc)].len() > 0 {
				r.scheduleOutput(port)
				break
			}
		}
	}
}

// HOL reports the head-of-line state of one input VC for the stall
// diagnostician. The OQ architecture has no VC-allocation pipeline; a routed
// head without an output VC waits for an unowned output queue, and its
// "holder" is the input client currently streaming a packet into one of the
// wanted queues.
func (r *OQ) HOL(port, vc int) HOLState {
	iv := &r.in[r.client(port, vc)]
	st := HOLState{Occupancy: iv.q.len(), OutPort: -1, OutVC: -1, WantPort: -1, HolderPort: -1, HolderVC: -1, OutDepth: r.outDepth}
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
		qi := r.client(iv.resp.Port, iv.outVC)
		st.Credits = r.downCred[iv.resp.Port][iv.outVC]
		st.CreditCap = r.downCap[iv.resp.Port]
		st.OutQueued = r.outOcc[qi]
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
		if r.in[client].q.len() != 0 {
			r.Panicf("idle check: input VC %d holds %d flits", client, r.in[client].q.len())
		}
	}
	for i := range r.outQ {
		if r.outQ[i].len() != 0 || r.outOcc[i] != 0 {
			r.Panicf("idle check: output queue %d holds %d flits (occ %d)",
				i, r.outQ[i].len(), r.outOcc[i])
		}
		if r.outOwner[i] != -1 {
			r.Panicf("idle check: output queue %d owned by client %d", i, r.outOwner[i])
		}
	}
	if _, ok := r.dl.next(); ok {
		r.Panicf("idle check: transfers in flight")
	}
	r.verifyIdleCredits()
}
