package router

import (
	"supersim/internal/config"
	"supersim/internal/crossbar"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

func init() {
	Registry.Register("input_output_queued", func(s *sim.Simulator, name string, cfg *config.Settings, p Params) Router {
		return NewIOQ(s, name, cfg, p)
	})
}

// IOQ is the combined input/output-queued router architecture: the
// input-queued pipeline extended with per-(port, VC) output queues. It has
// full crossbar input and output speedup — the crossbar core typically runs
// at a frequency multiple of the links ("speedup" setting). Flits wait in
// the input queues only until credits are available for the output queues;
// after arriving in the output queues they wait for downstream (next hop)
// credits.
//
// The architecture supports reporting congestion on a per-VC or per-port
// basis and can view output queue credits, downstream credits, or both —
// the credit accounting styles compared in case study B — through its
// congestion sensor configuration.
type IOQ struct {
	base
	routingLat uint64
	xbar       *crossbar.Crossbar
	outDepth   int // per (port, vc); 0 = infinite
	chanClock  *sim.Clock

	dl         delayLine
	in         []inputVC
	holder     [][]int
	vcPending  []int
	vcOrder    []int // allocateVCs ordering scratch, capacity len(in)
	vcRotate   int
	vcAgeOrder bool
	sched      []*xbarSched

	outQ    []flitQueue // [port*vcs+vc]
	outOcc  []int       // reserved occupancy incl. crossbar in-flight
	outBusy []bool      // per port: drain event scheduled
	outRR   []int       // per port: round robin VC pointer
}

// NewIOQ builds an input-output-queued router from its settings block.
func NewIOQ(s *sim.Simulator, name string, cfg *config.Settings, p Params) *IOQ {
	r := &IOQ{base: newBase(s, name, cfg, p)}
	r.routingLat = cfg.UIntOr("routing_latency", 1)
	if r.routingLat < 1 {
		r.Panicf("routing_latency must be at least one cycle")
	}
	xbarLat := sim.Tick(cfg.UIntOr("crossbar_latency", 1))
	if xbarLat < 1 {
		r.Panicf("crossbar_latency must be at least one tick")
	}
	r.xbar = crossbar.New(r.radix, xbarLat, r.coreClock.Period(), 1)
	r.outDepth = int(cfg.UIntOr("output_queue_depth", 64))
	r.chanClock = sim.NewClock(r.chanPeriod, 0)
	r.in = make([]inputVC, r.radix*r.vcs)
	r.vcOrder = make([]int, len(r.in))
	for i := range r.in {
		r.in[i].outPort, r.in[i].outVC = -1, -1
	}
	r.holder = make([][]int, r.radix)
	for port := range r.holder {
		r.holder[port] = make([]int, r.vcs)
		for vc := range r.holder[port] {
			r.holder[port][vc] = -1
		}
	}
	mk := schedFromConfig(cfg, r.rng)
	r.sched = make([]*xbarSched, r.radix)
	for port := range r.sched {
		r.sched[port] = mk()
	}
	r.vcAgeOrder = parseVCPolicy(cfg)
	r.outQ = make([]flitQueue, r.radix*r.vcs)
	r.outOcc = make([]int, r.radix*r.vcs)
	r.outBusy = make([]bool, r.radix)
	r.outRR = make([]int, r.radix)
	return r
}

func (r *IOQ) client(port, vc int) int   { return port*r.vcs + vc }
func (r *IOQ) clientPort(client int) int { return client / r.vcs }
func (r *IOQ) clientVC(client int) int   { return client % r.vcs }

// ReceiveFlit accepts a flit from an input channel.
func (r *IOQ) ReceiveFlit(port int, f *types.Flit) {
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
	r.maybeStartRoute(r.client(port, f.VC))
	r.schedulePipeline()
}

// ReceiveCredit accepts a downstream credit for an output port.
func (r *IOQ) ReceiveCredit(port int, c types.Credit) {
	r.checkPort(port)
	r.returnDownstreamCredit(port, c.VC)
	r.scheduleOutput(port)
}

func (r *IOQ) maybeStartRoute(client int) {
	iv := &r.in[client]
	f := iv.q.peek()
	if f == nil || !f.Head || iv.routeState != rsIdle {
		return
	}
	iv.routeState = rsPending
	now := r.Sim().Now()
	done := r.coreClock.FutureEdge(now.Tick+1, r.routingLat-1)
	r.Sim().Schedule(r, sim.Time{Tick: done}, evRouteDone, client)
}

func (r *IOQ) schedulePipeline() {
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

func (r *IOQ) scheduleOutput(port int) {
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
func (r *IOQ) ProcessEvent(ev *sim.Event) {
	switch ev.Type {
	case evPipeline:
		r.pipelineScheduled = false
		r.pipeline()
	case evRouteDone:
		r.routeDone(ev.Context.(int))
	case evXbarArrive:
		r.drainFlights()
	case evOutput:
		port := ev.Context.(int)
		r.outBusy[port] = false
		r.drain(port)
	default:
		r.Panicf("unknown event type %d", ev.Type)
	}
}

// pushFlight enqueues a crossbar traversal, arming the delay line event.
func (r *IOQ) pushFlight(at sim.Tick, f *types.Flit, port int) {
	r.dl.push(at, f, port)
	if !r.dl.scheduled {
		r.dl.scheduled = true
		r.Sim().Schedule(r, sim.Time{Tick: at}, evXbarArrive, nil)
	}
}

// drainFlights moves every traversal completing now into its output queue.
func (r *IOQ) drainFlights() {
	now := r.Sim().Now().Tick
	for {
		at, ok := r.dl.next()
		if !ok {
			r.dl.scheduled = false
			return
		}
		if at > now {
			r.Sim().Schedule(r, sim.Time{Tick: at}, evXbarArrive, nil)
			return
		}
		fl := r.dl.pop()
		if r.sp.Tracked(fl.f) {
			// Crossbar traversal ends at output-queue entry.
			r.sp.Step(r.Sim(), now, fl.f, telemetry.SpanXbar)
		}
		r.outQ[r.client(fl.port, fl.f.VC)].push(fl.f)
		r.scheduleOutput(fl.port)
	}
}

func (r *IOQ) routeDone(client int) {
	iv := &r.in[client]
	if iv.routeState != rsPending {
		r.Panicf("route completion in state %d", iv.routeState)
	}
	f := iv.q.peek()
	if f == nil || !f.Head {
		r.Panicf("route completion without head flit at queue head")
	}
	now := r.Sim().Now()
	resp := r.algs[r.clientPort(client)].Route(now.Tick, f.Pkt, r.clientPort(client), r.clientVC(client))
	r.validateResponse(resp, f.Pkt)
	iv.resp = resp
	iv.routeState = rsDone
	r.vcPending = append(r.vcPending, client)
	r.schedulePipeline()
}

func (r *IOQ) pipeline() {
	now := r.Sim().Now().Tick
	progress := false
	// Stage 1: VC allocation (identical policy to the IQ architecture).
	var vcProgress bool
	vcBefore := len(r.vcPending)
	r.vcPending, vcProgress = allocateVCs(r.Sim(), now, r.sp, r.vcPending, r.vcOrder, r.vcRotate, r.vcAgeOrder, r.in, r.holder, r.sched)
	r.noteAlloc(vcBefore, len(r.vcPending))
	r.vcRotate++
	progress = progress || vcProgress
	// Stage 2: switch allocation against output queue space.
	for port := 0; port < r.radix; port++ {
		sc := r.sched[port]
		if !sc.active() {
			continue
		}
		winner := sc.grant(
			func(client int) bool { return r.eligible(port, client) },
			func(client int) sim.Tick { return r.in[client].q.peek().Pkt.Age() },
		)
		if winner >= 0 {
			r.sendFlit(now, port, winner)
			progress = true
		}
	}
	if progress {
		r.schedulePipeline()
	}
}

// eligible reports whether the client can move a flit into the output queue
// this cycle. The credit pool checked here is the output queue space, not
// the downstream credits — that is the defining property of the IOQ
// architecture.
func (r *IOQ) eligible(port, client int) bool {
	iv := &r.in[client]
	f := iv.q.peek()
	if f == nil || iv.outVC < 0 || iv.outPort != port {
		return false
	}
	if r.outDepth == 0 {
		return true
	}
	space := r.outDepth - r.outOcc[r.client(port, iv.outVC)]
	need := 1
	if r.sched[port].mode == PacketBuffer && f.Head {
		need = f.Pkt.Size()
	}
	return space >= need
}

func (r *IOQ) sendFlit(now sim.Tick, port, client int) {
	iv := &r.in[client]
	f := iv.q.pop()
	if r.sp.Tracked(f) {
		// VC grant to switch grant: crossbar arbitration plus the wait for
		// output-queue space.
		r.sp.Step(r.Sim(), now, f, telemetry.SpanSWAlloc)
	}
	inPort, inVC := r.clientPort(client), r.clientVC(client)
	f.VC = iv.outVC
	if f.Head {
		f.Pkt.HopCount++
	}
	r.outOcc[r.client(port, iv.outVC)]++
	r.sensor.AddOutput(now, port, iv.outVC, 1)
	r.sendCreditUpstream(inPort, inVC)
	arrive := r.xbar.Start(now, port)
	r.pushFlight(arrive, f, port)
	r.sched[port].onSent(client, f.Head, f.Tail)
	r.noteRouted()
	if f.Tail {
		r.holder[port][iv.outVC] = -1
		iv.outPort, iv.outVC = -1, -1
		iv.routeState = rsIdle
		iv.resp = routing.Response{}
		r.maybeStartRoute(client)
	}
}

// drain sends one flit per channel cycle from the port's output queues,
// round robin across VCs that have both a flit and a downstream credit.
func (r *IOQ) drain(port int) {
	now := r.Sim().Now().Tick
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
		// Space freed: blocked switch allocation may proceed; more flits may
		// be waiting to drain next cycle.
		r.schedulePipeline()
		for v := 0; v < r.vcs; v++ {
			if r.outQ[r.client(port, v)].len() > 0 {
				r.scheduleOutput(port)
				break
			}
		}
		return
	}
}

// HOL reports the head-of-line state of one input VC for the stall
// diagnostician.
func (r *IOQ) HOL(port, vc int) HOLState {
	st := holFromInputVC(&r.base, r.in, r.holder, r.client(port, vc))
	if st.Phase == HOLAllocated {
		st.OutQueued = r.outOcc[r.client(st.OutPort, st.OutVC)]
		st.OutDepth = r.outDepth
	}
	return st
}

// VerifyIdle implements the post-drain quiescence check.
func (r *IOQ) VerifyIdle() {
	for client := range r.in {
		iv := &r.in[client]
		if iv.q.len() != 0 {
			r.Panicf("idle check: input VC %d holds %d flits", client, iv.q.len())
		}
		if iv.outVC != -1 || iv.routeState != rsIdle {
			r.Panicf("idle check: input VC %d holds an allocation", client)
		}
	}
	for port := range r.holder {
		for vc, h := range r.holder[port] {
			if h != -1 {
				r.Panicf("idle check: output VC %d.%d held by client %d", port, vc, h)
			}
		}
	}
	if len(r.vcPending) != 0 {
		r.Panicf("idle check: %d VC allocation requests pending", len(r.vcPending))
	}
	for i := range r.outQ {
		if r.outQ[i].len() != 0 || r.outOcc[i] != 0 {
			r.Panicf("idle check: output queue %d holds %d flits (occ %d)",
				i, r.outQ[i].len(), r.outOcc[i])
		}
	}
	if _, ok := r.dl.next(); ok {
		r.Panicf("idle check: crossbar traversals in flight")
	}
	r.verifyIdleCredits()
}
