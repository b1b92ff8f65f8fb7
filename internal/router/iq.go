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
	Registry.Register("input_queued", func(s *sim.Simulator, name string, cfg *config.Settings, p Params) Router {
		return NewIQ(s, name, cfg, p)
	})
}

// routeState values for the head packet of an input VC.
const (
	rsIdle = iota
	rsPending
	rsDone
)

// inputVC is the per-(input port, VC) queue and the pipeline state of its
// head packet.
type inputVC struct {
	q          flitQueue
	routeState int
	resp       routing.Response
	outPort    int  // allocated output port, -1 until VC allocation
	outVC      int  // allocated output VC, -1 until VC allocation
	granted    bool // transient grant mark used within one allocateVCs pass
}

// IQ is the input-queued router architecture modeled after the standard
// input-queued architecture in Dally & Towles: per-VC input buffers, a
// routing engine per input port, VC allocation, and crossbar scheduling with
// full input speedup (inputs never conflict; only outputs arbitrate). Flits
// wait in the input queues until downstream (next hop) credits are
// available. The crossbar scheduler's flow control technique (flit-buffer,
// packet-buffer, winner-take-all) is a configuration setting.
type IQ struct {
	base
	routingLat uint64 // core cycles, >= 1
	xbar       *crossbar.Crossbar

	dl            delayLine
	in            []inputVC
	holder        [][]int // [port][vc] -> client holding the output VC, -1 free
	vcPending     []int   // clients awaiting output VC allocation
	vcOrder       []int   // allocateVCs ordering scratch, capacity len(in)
	vcRotate      int
	vcAgeOrder    bool // VC scheduler policy: age_based instead of round_robin
	sched         []*xbarSched
	nextChanStart []sim.Tick // per output port: earliest channel inject tick
}

// NewIQ builds an input-queued router from its settings block.
func NewIQ(s *sim.Simulator, name string, cfg *config.Settings, p Params) *IQ {
	r := &IQ{base: newBase(s, name, cfg, p)}
	r.routingLat = cfg.UIntOr("routing_latency", 1)
	if r.routingLat < 1 {
		r.Panicf("routing_latency must be at least one cycle")
	}
	xbarLat := sim.Tick(cfg.UIntOr("crossbar_latency", 1))
	if xbarLat < 1 {
		r.Panicf("crossbar_latency must be at least one tick")
	}
	r.xbar = crossbar.New(r.radix, xbarLat, r.coreClock.Period(), 1)
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
	r.nextChanStart = make([]sim.Tick, r.radix)
	return r
}

func (r *IQ) client(port, vc int) int   { return port*r.vcs + vc }
func (r *IQ) clientPort(client int) int { return client / r.vcs }
func (r *IQ) clientVC(client int) int   { return client % r.vcs }

// ReceiveFlit accepts a flit from an input channel.
func (r *IQ) ReceiveFlit(port int, f *types.Flit) {
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
func (r *IQ) ReceiveCredit(port int, c types.Credit) {
	r.checkPort(port)
	r.returnDownstreamCredit(port, c.VC)
	r.schedulePipeline()
}

// maybeStartRoute launches route computation when an input VC's queue head
// is an unrouted head flit.
func (r *IQ) maybeStartRoute(client int) {
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

func (r *IQ) schedulePipeline() {
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

// ProcessEvent dispatches the router's events.
func (r *IQ) ProcessEvent(ev *sim.Event) {
	switch ev.Type {
	case evPipeline:
		r.pipelineScheduled = false
		r.pipeline()
	case evRouteDone:
		r.routeDone(ev.Context.(int))
	case evXbarArrive:
		r.drainFlights()
	default:
		r.Panicf("unknown event type %d", ev.Type)
	}
}

// pushFlight enqueues a crossbar traversal, arming the delay line event.
func (r *IQ) pushFlight(at sim.Tick, f *types.Flit, port int) {
	r.dl.push(at, f, port)
	if !r.dl.scheduled {
		r.dl.scheduled = true
		r.Sim().Schedule(r, sim.Time{Tick: at}, evXbarArrive, nil)
	}
}

// drainFlights injects every traversal completing now into its channel.
func (r *IQ) drainFlights() {
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
			// Crossbar traversal ends at channel entry.
			r.sp.Step(r.Sim(), now, fl.f, telemetry.SpanXbar)
		}
		r.outCh[fl.port].Inject(fl.f)
	}
}

func (r *IQ) routeDone(client int) {
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

func (r *IQ) pipeline() {
	now := r.Sim().Now().Tick
	progress := false
	// Stage 1: VC allocation (the VC scheduler).
	var vcProgress bool
	vcBefore := len(r.vcPending)
	r.vcPending, vcProgress = allocateVCs(r.Sim(), now, r.sp, r.vcPending, r.vcOrder, r.vcRotate, r.vcAgeOrder, r.in, r.holder, r.sched)
	r.noteAlloc(vcBefore, len(r.vcPending))
	r.vcRotate++
	progress = progress || vcProgress
	// Stage 2: switch allocation, one winner per output port.
	channelBlocked := false
	for port := 0; port < r.radix; port++ {
		sc := r.sched[port]
		if !sc.active() {
			continue
		}
		winner := sc.grant(
			func(client int) bool {
				ok, chBlock := r.eligible(now, port, client)
				channelBlocked = channelBlocked || chBlock
				return ok
			},
			func(client int) sim.Tick { return r.in[client].q.peek().Pkt.Age() },
		)
		if winner >= 0 {
			r.sendFlit(now, port, winner)
			progress = true
		}
	}
	if progress || channelBlocked {
		r.schedulePipeline()
	}
}

// eligible reports whether the client can send a flit through output port
// this cycle; the second result flags "blocked only by channel timing",
// which requires a retry next cycle without any external event.
func (r *IQ) eligible(now sim.Tick, port, client int) (bool, bool) {
	iv := &r.in[client]
	f := iv.q.peek()
	if f == nil || iv.outVC < 0 || iv.outPort != port {
		return false, false
	}
	cred := r.downCred[port][iv.outVC]
	need := 1
	if r.sched[port].mode == PacketBuffer && f.Head {
		need = f.Pkt.Size()
	}
	if cred < need {
		r.noteCreditStall()
		return false, false
	}
	if r.nextChanStart[port] > now+r.xbar.Latency() {
		return false, true
	}
	return true, false
}

func (r *IQ) sendFlit(now sim.Tick, port, client int) {
	iv := &r.in[client]
	f := iv.q.pop()
	if r.sp.Tracked(f) {
		// VC grant to switch grant: crossbar arbitration plus credit waits.
		r.sp.Step(r.Sim(), now, f, telemetry.SpanSWAlloc)
	}
	inPort, inVC := r.clientPort(client), r.clientVC(client)
	f.VC = iv.outVC
	if f.Head {
		f.Pkt.HopCount++
	}
	r.takeDownstreamCredit(port, iv.outVC)
	r.sendCreditUpstream(inPort, inVC)
	arrive := r.xbar.Start(now, port)
	r.nextChanStart[port] = arrive + r.chanPeriod
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

// HOL reports the head-of-line state of one input VC for the stall
// diagnostician.
func (r *IQ) HOL(port, vc int) HOLState {
	return holFromInputVC(&r.base, r.in, r.holder, r.client(port, vc))
}

// VerifyIdle implements the post-drain quiescence check.
func (r *IQ) VerifyIdle() {
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
	if _, ok := r.dl.next(); ok {
		r.Panicf("idle check: crossbar traversals in flight")
	}
	r.verifyIdleCredits()
}
