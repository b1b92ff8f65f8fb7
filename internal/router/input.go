package router

import (
	"math"

	"supersim/internal/config"
	"supersim/internal/crossbar"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

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

// inputArch is what an architecture built on the input-queued front end
// supplies: the rule for what a flit leaving the crossbar flows into. The
// architecture implements it itself and is bound once, by its constructor.
type inputArch interface {
	// eligible reports whether output (port, vc) can take need more flits
	// this cycle. retry flags "blocked only by timing": the pipeline must
	// look again next cycle without waiting for an external event.
	eligible(now sim.Tick, port, vc, need int) (ok, retry bool)
	// reserve claims the space eligible found for one flit entering the
	// crossbar now and leaving it at arrive.
	reserve(now sim.Tick, port, vc int, arrive sim.Tick)
	// deliver takes a flit off the far side of the crossbar.
	deliver(port int, f *types.Flit)
	// packetRoom returns the most flits output port can ever hold for one
	// VC (0 = unbounded) and the setting that fixes it.
	packetRoom(port int) (flits int, setting string)
}

// inputStage is the input-queued front end shared by the IQ and IOQ
// architectures, modeled after the standard input-queued pipeline in Dally &
// Towles: per-VC input buffers, a routing engine per input port, VC
// allocation, and crossbar scheduling with full input speedup (inputs never
// conflict; only outputs arbitrate). The crossbar scheduler's flow control
// technique (flit-buffer, packet-buffer, winner-take-all) is a configuration
// setting.
type inputStage struct {
	base
	arch       inputArch
	routingLat uint64 // core cycles, >= 1
	xbar       *crossbar.Crossbar

	in         []inputVC
	routes     delayLine[int] // clients whose route computation is in flight
	holder     [][]int        // [port][vc] -> client holding the output VC, -1 free
	vcPending  []int          // clients awaiting output VC allocation
	vcOrder    []int          // allocateVCs ordering scratch, capacity len(in)
	vcRotate   int
	vcAgeOrder bool // VC scheduler policy: age_based instead of round_robin
	sched      []*xbarSched
}

// initInputStage builds the front end in place from a router settings block.
// st is embedded in arch, the architecture that handles its events and
// supplies its inputArch; this is the one place the two are bound.
func initInputStage(st *inputStage, arch interface {
	sim.Handler
	inputArch
}, s *sim.Simulator, name string, cfg *config.Settings, p Params) {
	st.base = newBase(s, name, cfg, p)
	st.self, st.arch = arch, arch
	st.dl.ev = evXbarArrive
	st.routes.ev = evRouteDone
	st.routingLat = cfg.UIntOr("routing_latency", 1)
	if st.routingLat < 1 {
		st.Panicf("routing_latency must be at least one cycle")
	}
	xbarLat := sim.Tick(cfg.UIntOr("crossbar_latency", 1))
	if xbarLat < 1 {
		st.Panicf("crossbar_latency must be at least one tick")
	}
	st.xbar = crossbar.New(st.radix, xbarLat, st.coreClock.Period(), 1)
	st.in = make([]inputVC, st.radix*st.vcs)
	st.vcOrder = make([]int, len(st.in))
	for i := range st.in {
		st.in[i].outPort, st.in[i].outVC = -1, -1
	}
	st.holder = make([][]int, st.radix)
	for port := range st.holder {
		st.holder[port] = make([]int, st.vcs)
		for vc := range st.holder[port] {
			st.holder[port][vc] = -1
		}
	}
	mode := ParseFlowControl(cfg.StringOr("flow_control", "flit_buffer"))
	policy := parsePolicy(cfg.StringOr("crossbar_policy", "round_robin"))
	st.sched = make([]*xbarSched, st.radix)
	for port := range st.sched {
		st.sched[port] = newXbarSched(mode, policy, st.rng)
	}
	st.vcAgeOrder = parseVCPolicy(cfg)
}

// ReceiveFlit accepts a flit from an input channel.
func (s *inputStage) ReceiveFlit(port int, f *types.Flit) {
	client := s.arrivalClient(port, f)
	s.receive(&s.in[client].q, port, f)
	s.maybeStartRoute(client)
	s.schedulePipeline()
}

// ProcessEvent dispatches the front end's events.
func (s *inputStage) ProcessEvent(ev *sim.Event) {
	switch ev.Type {
	case evPipeline:
		s.pipelineScheduled = false
		s.pipeline()
	case evRouteDone:
		for client, ok := s.routes.land(&s.base); ok; client, ok = s.routes.land(&s.base) {
			s.routeDone(client)
		}
	case evXbarArrive:
		for fl, ok := s.landFlight(); ok; fl, ok = s.landFlight() {
			s.arch.deliver(fl.port, fl.f)
		}
	default:
		s.Panicf("unknown event type %d", ev.Type)
	}
}

// maybeStartRoute launches route computation when an input VC's queue head
// is an unrouted head flit. Completions go through the routes delay line, so
// the router holds one evRouteDone for all of them, which completes every
// route due at its tick in one batch. That batch can run ahead of an
// evXbarArrive at the same time that, with one event per route, would have
// run between two of its completions. The reordering is exact because the
// two share no state: deliver touches neither the congestion sensor, the
// rng nor vcPending, and routing reads only the sensor, the rng and the
// topology, never channel or queue state.
func (s *inputStage) maybeStartRoute(client int) {
	iv := &s.in[client]
	f := iv.q.peek()
	if f == nil || !f.Head || iv.routeState != rsIdle {
		return
	}
	iv.routeState = rsPending
	// done is monotone in now, so the line stays a FIFO.
	done := s.coreClock.FutureEdge(s.Sim().Now().Tick+1, s.routingLat-1)
	s.routes.add(&s.base, done, client)
}

func (s *inputStage) routeDone(client int) {
	iv := &s.in[client]
	if iv.routeState != rsPending {
		s.Panicf("route completion in state %d", iv.routeState)
	}
	f := iv.q.peek()
	if f == nil || !f.Head {
		s.Panicf("route completion without head flit at queue head")
	}
	resp := s.algs[s.clientPort(client)].Route(s.Sim().Now().Tick, f.Pkt, s.clientPort(client), s.clientVC(client))
	s.validateResponse(resp, f.Pkt)
	if s.sched[resp.Port].mode == PacketBuffer {
		// Packet-buffer flow control sends a head only into room for its
		// whole packet; a packet larger than the pool waits forever.
		if room, setting := s.arch.packetRoom(resp.Port); room > 0 && f.Pkt.Size() > room {
			s.Panicf("flow_control packet_buffer: %v has %d flits but output port %d never has room for more than %d (%s)",
				f.Pkt, f.Pkt.Size(), resp.Port, room, setting)
		}
	}
	iv.resp = resp
	iv.routeState = rsDone
	s.vcPending = append(s.vcPending, client)
	s.schedulePipeline()
}

// pipeline runs one core cycle: VC allocation (the VC scheduler), then switch
// allocation with one winner per output port.
func (s *inputStage) pipeline() {
	now := s.Sim().Now().Tick
	progress := s.allocateVCs(now)
	retry := false
	for port, sc := range s.sched {
		if !sc.active() {
			continue
		}
		winner := sc.grant(
			func(client int) bool {
				ok, again := s.eligible(now, port, client)
				retry = retry || again
				return ok
			},
			func(client int) sim.Tick { return s.in[client].q.peek().Pkt.Age() },
		)
		if winner >= 0 {
			s.sendFlit(now, port, winner)
			progress = true
		}
	}
	if progress || retry {
		s.schedulePipeline()
	}
}

// allocateVCs performs one cycle of output VC allocation. Pending clients
// (input VCs whose head packet has a routing response) try to take a free
// output VC from their response's registered set. Contention is resolved
// either by a rotating start offset (round robin) or by packet age (oldest
// first). It reports whether any grant was made. Ordering storage is
// vcOrder and grant marks ride in the inputVC structs: the allocator never
// allocates — it runs every core cycle on every router.
func (s *inputStage) allocateVCs(now sim.Tick) bool {
	pending := s.vcPending
	rotate := s.vcRotate
	s.vcRotate++
	n := len(pending)
	if n == 0 {
		return false
	}
	order := s.vcOrder[:n]
	if s.vcAgeOrder {
		copy(order, pending)
		// Insertion sort by age: pending lists are short.
		for i := 1; i < n; i++ {
			c := order[i]
			a := s.in[c].q.peek().Pkt.Age()
			j := i - 1
			for j >= 0 && s.in[order[j]].q.peek().Pkt.Age() > a {
				order[j+1] = order[j]
				j--
			}
			order[j+1] = c
		}
	} else {
		start := rotate % n
		for i := range order {
			order[i] = pending[(start+i)%n]
		}
	}
	progress := false
	for _, client := range order {
		iv := &s.in[client]
		for _, vc := range iv.resp.VCs {
			if s.holder[iv.resp.Port][vc] == -1 {
				s.holder[iv.resp.Port][vc] = client
				iv.outPort, iv.outVC = iv.resp.Port, vc
				s.sched[iv.resp.Port].addContender(client)
				iv.granted = true
				progress = true
				if f := iv.q.peek(); s.sp.Tracked(f) {
					// Arrival to VC grant: route computation plus the wait
					// for a free output VC.
					s.sp.Step(now, f, telemetry.SpanVCAlloc)
				}
				break
			}
		}
	}
	kept := pending[:0]
	for _, client := range pending {
		iv := &s.in[client]
		if iv.granted {
			iv.granted = false
		} else {
			kept = append(kept, client)
		}
	}
	s.vcPending = kept
	s.tp.Alloc(n-len(kept), len(kept))
	return progress
}

// eligible reports whether the client can send a flit through output port
// this cycle, and whether a refusal is only a matter of timing.
func (s *inputStage) eligible(now sim.Tick, port, client int) (ok, retry bool) {
	iv := &s.in[client]
	f := iv.q.peek()
	if f == nil || iv.outVC < 0 || iv.outPort != port {
		return false, false
	}
	need := 1
	if s.sched[port].mode == PacketBuffer && f.Head {
		need = f.Pkt.Size()
	}
	return s.arch.eligible(now, port, iv.outVC, need)
}

// sendFlit moves the winner's head-of-line flit into the crossbar and, behind
// a tail, releases the output VC and starts routing the next packet.
func (s *inputStage) sendFlit(now sim.Tick, port, client int) {
	iv := &s.in[client]
	f := iv.q.pop()
	if s.sp.Tracked(f) {
		// VC grant to switch grant: crossbar arbitration plus the wait for
		// whatever the architecture's eligibility rule waits for.
		s.sp.Step(now, f, telemetry.SpanSWAlloc)
	}
	f.VC = iv.outVC
	if f.Head {
		f.Pkt.HopCount++
	}
	arrive := s.xbar.Start(now, port)
	s.arch.reserve(now, port, iv.outVC, arrive)
	s.forwarded(client)
	s.startFlight(arrive, f, port)
	s.sched[port].onSent(client, f.Head, f.Tail)
	if f.Tail {
		s.holder[port][iv.outVC] = -1
		iv.outPort, iv.outVC = -1, -1
		iv.routeState = rsIdle
		iv.resp = routing.Response{}
		s.maybeStartRoute(client)
	}
}

// HOL reports the head-of-line state of one input VC for the stall
// diagnostician. Architectures with output queues overlay their queue
// occupancy on the result.
func (s *inputStage) HOL(port, vc int) HOLState {
	iv := &s.in[s.client(port, vc)]
	st := HOLState{Occupancy: iv.q.len(), OutPort: -1, OutVC: -1, WantPort: -1, HolderPort: -1, HolderVC: -1, OutDepth: -1}
	f := iv.q.peek()
	if f == nil {
		st.Phase = HOLEmpty
		return st
	}
	st.Flit = f
	switch {
	case iv.outVC >= 0:
		st.Phase = HOLAllocated
		st.OutPort, st.OutVC = iv.outPort, iv.outVC
		st.Credits = s.downCred[iv.outPort][iv.outVC]
		st.CreditCap = s.downCap[iv.outPort]
	case iv.routeState == rsDone:
		st.Phase = HOLAwaitingVC
		st.WantPort = iv.resp.Port
		st.WantVCs = iv.resp.VCs
		for _, vc := range iv.resp.VCs {
			if s.holder[iv.resp.Port][vc] == -1 {
				// A wanted VC is free, so the wait is transient: a grant is
				// due next allocation cycle. No holder to chain to.
				return st
			}
		}
		h := s.holder[iv.resp.Port][iv.resp.VCs[0]]
		st.HolderPort, st.HolderVC = s.clientPort(h), s.clientVC(h)
	default:
		st.Phase = HOLRouting
	}
	return st
}

// VerifyIdle implements the post-drain quiescence check for the front end
// and the downstream credits.
func (s *inputStage) VerifyIdle() {
	for client := range s.in {
		iv := &s.in[client]
		if iv.q.len() != 0 {
			s.Panicf("idle check: input VC %d holds %d flits", client, iv.q.len())
		}
		if iv.outVC != -1 || iv.routeState != rsIdle {
			s.Panicf("idle check: input VC %d holds an allocation", client)
		}
	}
	for port := range s.holder {
		for vc, h := range s.holder[port] {
			if h != -1 {
				s.Panicf("idle check: output VC %d.%d held by client %d", port, vc, h)
			}
		}
	}
	if len(s.vcPending) != 0 {
		s.Panicf("idle check: %d VC allocation requests pending", len(s.vcPending))
	}
	s.verifyIdle()
}

// Collect implements Stater for the front end alone; architectures with more
// queues add theirs.
func (s *inputStage) Collect(t *types.MessageTable) {
	for i := range s.in {
		s.in[i].q.collect(t)
	}
	s.collectFlights(t)
}

// state codes the shared plumbing and the whole front end: crossbar, delay
// line, input VCs and the routes in flight, then the VC-allocation and
// crossbar-scheduling state.
// holder and vcPending carry client numbers; vcRotate only ever counts up and
// is used modulo the pending count, so a negative one would index negatively.
func (s *inputStage) state(c *snapshot.Codec, t *types.MessageTable) {
	s.base.state(c)
	s.xbar.State(c)
	s.stateFlights(c, t)
	for i := range s.in {
		s.in[i].state(c, t, s.radix, s.vcs)
	}
	s.routes.state(c, "route line", func(i int, client *int) {
		c.Index(client, len(s.in), "route line client")
		if !c.Loading() || c.Err() != nil {
			return
		}
		iv := &s.in[*client]
		if f := iv.q.peek(); iv.routeState != rsIdle || f == nil || !f.Head {
			c.Failf("route line entry %d: input VC %d is not an unrouted packet head", i, *client)
			return
		}
		iv.routeState = rsPending
	})
	for port := range s.holder {
		stateIndices(c, s.holder[port], c.IndexOrNone, len(s.in), "output VC holder")
	}
	snapshot.Slice(c, &s.vcPending)
	for i := range s.vcPending {
		c.Index(&s.vcPending[i], len(s.in), "vcPending")
	}
	c.Index(&s.vcRotate, math.MaxInt, "vcRotate")
	for _, sc := range s.sched {
		sc.state(c, len(s.in))
	}
}

func (iv *inputVC) state(c *snapshot.Codec, t *types.MessageTable, ports, vcs int) {
	iv.q.state(c, t)
	stateResponse(c, &iv.resp, ports, vcs)
	c.IndexOrNone(&iv.outPort, ports, "inputVC.outPort")
	c.IndexOrNone(&iv.outVC, vcs, "inputVC.outVC")
	if c.Loading() {
		// A routed head holds its response until its tail leaves; a route in
		// flight is marked by the route line, which is coded after the VCs.
		iv.routeState = rsIdle
		if len(iv.resp.VCs) > 0 {
			iv.routeState = rsDone
		}
		iv.granted = false
	}
}
