package router

import (
	"math/rand/v2"

	"supersim/internal/channel"
	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

// event type tags shared by the architectures
const (
	evPipeline = iota
	evRouteDone
	evXbarArrive
	evTransferArrive
	evOutput
)

// base holds the plumbing common to all router architectures: ports,
// virtual channels, clocks, the input-buffer arrival checks, the
// fixed-latency internal datapath, downstream credit counters, the congestion
// sensor, and per-input-port routing engines.
type base struct {
	sim.ComponentBase
	// self is the architecture embedding this base: the handler every event
	// the shared code schedules is delivered to. Constructors set it.
	self  sim.Handler
	id    int
	radix int
	vcs   int

	arr        *channel.Line // arrivals from every inbound channel
	bufDepth   int
	dl         delayLine[flight] // the internal datapath: flits between input buffer and output
	chanPeriod sim.Tick
	coreClock  *sim.Clock

	outCh     []*channel.Channel       // per output port, nil if unconnected
	creditOut []*channel.CreditChannel // per input port, nil if unconnected
	downCred  [][]int                  // [port][vc] available downstream credits
	downCap   []int                    // [port] initial per-VC downstream credits

	sensor *congestion.CreditSensor // nil unless routing reads it
	algs   []routing.Algorithm      // per input port
	rng    *rand.Rand

	// telemetry probe and span recorder, nil unless attached to the simulator
	tp *telemetry.RouterProbe
	sp *telemetry.Spans

	pipelineScheduled bool
}

func newBase(s *sim.Simulator, name string, cfg *config.Settings, p Params) base {
	if p.Radix <= 0 {
		panic("router: radix must be positive")
	}
	if p.ChannelPeriod == 0 {
		panic("router: channel period must be positive")
	}
	vcs := int(cfg.UIntOr("num_vcs", 1))
	if vcs <= 0 {
		panic("router: num_vcs must be positive")
	}
	bufDepth := int(cfg.UIntOr("input_buffer_depth", 16))
	if bufDepth <= 0 {
		panic("router: input_buffer_depth must be positive")
	}
	speedup := cfg.UIntOr("speedup", 1)
	if speedup == 0 || p.ChannelPeriod%sim.Tick(speedup) != 0 {
		panic("router: speedup must divide the channel period")
	}
	cb := sim.NewComponentBase(s, name)
	// The arrival line takes the next construction-order key, right after
	// the router's: see channel.Line.
	arr := channel.NewLine(s, name+".arrivals", 2*p.Radix)
	b := base{
		ComponentBase: cb,
		arr:           arr,
		id:            p.ID,
		radix:         p.Radix,
		vcs:           vcs,
		bufDepth:      bufDepth,
		chanPeriod:    p.ChannelPeriod,
		coreClock:     sim.NewClock(p.ChannelPeriod / sim.Tick(speedup)),
		outCh:         make([]*channel.Channel, p.Radix),
		creditOut:     make([]*channel.CreditChannel, p.Radix),
		downCred:      make([][]int, p.Radix),
		downCap:       make([]int, p.Radix),
		// A stream derived from the router's (unique) name: the router draws
		// the same sequence independently of other components' draws.
		rng: s.DeriveRand(name),
	}
	for i := range b.downCred {
		b.downCred[i] = make([]int, vcs)
	}
	b.tp = telemetry.ForRouter(s, name, vcs)
	b.sp = telemetry.SpansFor(s)
	b.sensor = congestion.New(cfg.SubOr("congestion_sensor"), p.Radix, vcs, p.ReadsCongestion)
	if p.RoutingCtor == nil {
		panic("router: routing constructor required")
	}
	b.algs = make([]routing.Algorithm, p.Radix)
	for port := range b.algs {
		b.algs[port] = p.RoutingCtor(p.ID, port, b.sensor, b.rng)
	}
	return b
}

// ID returns the router's index within the network.
func (b *base) ID() int { return b.id }

// Radix returns the number of ports.
func (b *base) Radix() int { return b.radix }

// NumVCs returns the number of virtual channels per port.
func (b *base) NumVCs() int { return b.vcs }

// InputBufferDepth returns the per-VC input buffer capacity in flits.
func (b *base) InputBufferDepth() int { return b.bufDepth }

// Arrivals returns the router's arrival line, which its inbound channels
// feed.
func (b *base) Arrivals() *channel.Line { return b.arr }

// bind sets the architecture embedding this base as the handler of its
// events and the receiver of its arrivals.
func (b *base) bind(self interface {
	sim.Handler
	channel.Receiver
}) {
	b.self = self
	b.arr.Bind(self)
}

// ConnectOutput wires the flit channel leaving an output port.
func (b *base) ConnectOutput(port int, ch *channel.Channel) {
	b.checkPort(port)
	b.outCh[port] = ch
}

// OutputChannel returns the flit channel leaving an output port, or nil when
// the port is unconnected. The stall diagnostician uses it to follow blocked
// dependency chains downstream.
func (b *base) OutputChannel(port int) *channel.Channel {
	b.checkPort(port)
	return b.outCh[port]
}

// ConnectCreditOut wires the upstream credit return channel of an input port.
func (b *base) ConnectCreditOut(port int, cc *channel.CreditChannel) {
	b.checkPort(port)
	b.creditOut[port] = cc
}

// SetDownstreamCredits initializes an output port's per-VC credit counters.
func (b *base) SetDownstreamCredits(port int, perVC int) {
	b.checkPort(port)
	if perVC <= 0 {
		b.Panicf("downstream credits must be positive, got %d", perVC)
	}
	b.downCap[port] = perVC
	for vc := range b.downCred[port] {
		b.downCred[port][vc] = perVC
	}
}

func (b *base) checkPort(port int) {
	if uint(port) >= uint(b.radix) {
		b.badPort(port)
	}
}

// The cold halves of the receive path's checks. Formatting a panic message
// takes more code than the checks themselves, so it lives out of line and
// a check's hot path is a compare and a branch.

//go:noinline
func (b *base) badPort(port int) {
	b.Panicf("port %d out of range (radix %d)", port, b.radix)
}

//go:noinline
func (b *base) badArrival(port, vc int, f *types.Flit) {
	b.checkPort(port)
	b.Panicf("%v arrived on unregistered VC %d (have %d)", f, vc, b.vcs)
}

//go:noinline
func (b *base) overrun(port, vc int) {
	b.Panicf("input buffer overrun on port %d vc %d", port, vc)
}

//go:noinline
func (b *base) excessCredit(port, vc int) {
	b.Panicf("downstream credits exceeded capacity on port %d vc %d", port, vc)
}

// Input VCs are numbered port-major; the number is the "client" the
// allocators and schedulers arbitrate among.
func (b *base) client(port, vc int) int   { return port*b.vcs + vc }
func (b *base) clientPort(client int) int { return client / b.vcs }
func (b *base) clientVC(client int) int   { return client % b.vcs }

// arrivalClient applies the framework's error detection to an arriving
// flit's address — the port exists and the VC is registered — and returns
// its input client.
func (b *base) arrivalClient(port, vc int, f *types.Flit) int {
	if uint(port) >= uint(b.radix) || uint(vc) >= uint(b.vcs) {
		b.badArrival(port, vc, f)
	}
	return b.client(port, vc)
}

// receive appends a flit arriving on (port, vc) to that input buffer, q,
// panicking on an overrun: the sender spent a credit it did not have.
func (b *base) receive(q *flitQueue, port, vc int, f *types.Flit) {
	if q.len() >= b.bufDepth {
		b.overrun(port, vc)
	}
	q.push(f)
	b.tp.FlitBuffered(vc)
}

// schedulePipeline arms the architecture's pipeline event for the next core
// clock edge, unless one is already pending.
func (b *base) schedulePipeline() {
	if b.pipelineScheduled {
		return
	}
	now := b.Sim().Now()
	t := sim.Time{Tick: b.coreClock.NextEdge(now.Tick), Eps: 1}
	if !now.Before(t) {
		t = sim.Time{Tick: b.coreClock.NextEdge(now.Tick + 1), Eps: 1}
	}
	b.pipelineScheduled = true
	b.Sim().Schedule(b.self, t, evPipeline, nil)
}

// validateResponse applies the framework error detection to a routing
// decision: the port must exist and be connected, and every VC must be
// registered (in range).
func (b *base) validateResponse(resp routing.Response, pkt *types.Packet) {
	if resp.Port < 0 || resp.Port >= b.radix {
		b.Panicf("routing %v to invalid port %d", pkt, resp.Port)
	}
	if b.outCh[resp.Port] == nil {
		b.Panicf("routing %v targets unused output port %d — rejected", pkt, resp.Port)
	}
	if len(resp.VCs) == 0 {
		b.Panicf("routing %v returned no VCs", pkt)
	}
	for _, vc := range resp.VCs {
		if vc < 0 || vc >= b.vcs {
			b.Panicf("routing %v uses unregistered VC %d (have %d)", pkt, vc, b.vcs)
		}
	}
}

// takeDownstreamCredit consumes one downstream credit and updates the sensor.
func (b *base) takeDownstreamCredit(port, vc int) {
	b.downCred[port][vc]--
	if b.downCred[port][vc] < 0 {
		b.Panicf("downstream credits went negative on port %d vc %d", port, vc)
	}
	b.sensor.AddDownstream(b.Sim().Now().Tick, port, vc, 1)
}

// returnDownstreamCredit restores one downstream credit (on credit arrival).
func (b *base) returnDownstreamCredit(port, vc int) {
	b.checkPort(port)
	b.downCred[port][vc]++
	if b.downCred[port][vc] > b.downCap[port] {
		b.excessCredit(port, vc)
	}
	b.sensor.AddDownstream(b.Sim().Now().Tick, port, vc, -1)
}

// forwarded accounts for a flit that left a client's input buffer for its
// output: the slot's credit goes back to the sender and the flit counts as
// routed in the telemetry registry.
func (b *base) forwarded(client int) {
	port, vc := b.clientPort(client), b.clientVC(client)
	cc := b.creditOut[port]
	if cc == nil {
		b.Panicf("no credit channel on input port %d", port)
	}
	b.tp.FlitUnbuffered(vc)
	cc.Inject(types.Credit{VC: vc})
	b.tp.FlitRouted()
}

// verifyIdle panics unless the internal datapath is empty and every connected
// output port has all of its downstream credits back.
func (b *base) verifyIdle() {
	if b.dl.q.Len() > 0 {
		b.Panicf("idle check: flits in flight between input and output")
	}
	for port := 0; port < b.radix; port++ {
		if b.outCh[port] == nil || b.downCap[port] == 0 {
			continue
		}
		for vc := 0; vc < b.vcs; vc++ {
			if b.downCred[port][vc] != b.downCap[port] {
				b.Panicf("idle check: port %d vc %d holds %d of %d downstream credits",
					port, vc, b.downCred[port][vc], b.downCap[port])
			}
		}
	}
}

// flight is one flit traversing a fixed-latency internal datapath (crossbar
// or queue-to-queue transfer) toward an output port and the VC it was
// allocated there.
type flight struct {
	f        *types.Flit
	port, vc int32
}

// delayLine is a FIFO of values each due at a tick, for which the router
// holds at most one pending event (of type ev) in the global queue. Due
// times must be monotone, which the two uses guarantee by construction:
// internal traversals (fixed latency, monotone starts) and route completions
// (a fixed number of core cycles after monotone starts). This keeps the
// global event queue small even with long crossbar or routing latencies.
// The run queue stores each due tick once per run of values due at it.
type delayLine[T any] struct {
	q         sim.RunQueue[T]
	ev        int
	scheduled bool
}

// add appends v, due at tick at, and schedules the line's event on the
// router unless one is pending.
func (d *delayLine[T]) add(b *base, at sim.Tick, v T) {
	d.q.Push(at, v)
	if !d.scheduled {
		d.scheduled = true
		b.Sim().Schedule(b.self, sim.Time{Tick: at}, d.ev, nil)
	}
}

// land pops the next entry due now. When none is left it re-arms the line's
// event for the earliest later entry and reports false; the event's handler
// loops on it.
func (d *delayLine[T]) land(b *base) (T, bool) {
	var zero T
	at, ok := d.q.Next()
	if !ok {
		d.scheduled = false
		return zero, false
	}
	if at > b.Sim().Now().Tick {
		b.Sim().Schedule(b.self, sim.Time{Tick: at}, d.ev, nil)
		return zero, false
	}
	return d.q.Pop(), true
}

// startFlight sends a flit down the internal datapath toward output (port,
// vc), to complete at tick at.
func (b *base) startFlight(at sim.Tick, f *types.Flit, port, vc int) {
	b.dl.add(b, at, flight{f, int32(port), int32(vc)})
}

// landFlight pops the next traversal completing now; see delayLine.land.
func (b *base) landFlight() (flight, bool) {
	fl, ok := b.dl.land(b)
	if ok && b.sp.Tracked(fl.f) {
		// The traversal ends where the flit enters the channel or the output queue.
		b.sp.Step(b.Sim().Now().Tick, fl.f, telemetry.SpanXbar)
	}
	return fl, ok
}

// flitQueue is a FIFO of flits backed by a ring buffer. The ring's length is
// always a power of two (0, then 4, doubling), so positions wrap with a mask
// rather than a divide.
type flitQueue struct {
	buf  []*types.Flit
	head int
	n    int
}

func (q *flitQueue) len() int { return q.n }

// at returns the ring slot of the queue's i-th entry.
func (q *flitQueue) at(i int) **types.Flit { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *flitQueue) push(f *types.Flit) {
	if q.n == len(q.buf) {
		grown := make([]*types.Flit, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = *q.at(i)
		}
		q.buf = grown
		q.head = 0
	}
	*q.at(q.n) = f
	q.n++
}

func (q *flitQueue) peek() *types.Flit {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

func (q *flitQueue) pop() *types.Flit {
	if q.n == 0 {
		return nil
	}
	f := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return f
}
