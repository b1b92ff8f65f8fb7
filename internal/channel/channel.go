// Package channel models the unidirectional links that connect routers and
// interfaces. A flit channel carries one flit per channel cycle in the
// forward direction; a credit channel carries flow control credits in the
// reverse direction. Both impose a fixed propagation latency — the dominant
// term in large-scale networks where cables run tens of meters.
//
// Because a channel's latency is fixed, deliveries are FIFO; each channel
// therefore keeps its own pending queue and holds at most one event in the
// simulator's priority queue at a time, which keeps the global event queue
// small even with hundreds of flits in flight per link.
package channel

import (
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
	"supersim/internal/verify"
)

const (
	evDeliver = iota
)

type flitFlight struct {
	at sim.Tick
	f  *types.Flit
}

// Channel is a unidirectional flit link with bandwidth of one flit per
// period ticks and a fixed propagation latency in ticks.
type Channel struct {
	sim.ComponentBase
	latency  sim.Tick
	period   sim.Tick
	sink     types.FlitSink
	sinkPort int
	nextSlot sim.Tick // earliest tick the next flit may be injected
	injected uint64

	pending   []flitFlight // FIFO of in-flight flits (ring on head index)
	head      int
	scheduled bool

	v  *verify.Verifier        // nil unless invariant verification is attached
	tp *telemetry.ChannelProbe // nil unless telemetry is attached
	sp *telemetry.Spans        // nil unless span recording is attached
}

// New creates a flit channel. latency is the propagation delay in ticks;
// period is the channel cycle time in ticks (one flit per cycle).
func New(s *sim.Simulator, name string, latency, period sim.Tick) *Channel {
	if period == 0 {
		panic("channel: period must be positive")
	}
	if latency == 0 {
		panic("channel: latency must be at least one tick")
	}
	return &Channel{
		ComponentBase: sim.NewComponentBase(s, name),
		latency:       latency,
		period:        period,
		v:             verify.For(s),
		tp:            telemetry.ForChannel(s, name, period),
		sp:            telemetry.SpansFor(s),
	}
}

// SetSink connects the channel's receive side to a flit sink; delivered
// flits arrive with the given port number.
func (c *Channel) SetSink(sink types.FlitSink, port int) {
	c.sink = sink
	c.sinkPort = port
}

// Latency returns the propagation latency in ticks.
func (c *Channel) Latency() sim.Tick { return c.latency }

// Period returns the channel cycle time in ticks.
func (c *Channel) Period() sim.Tick { return c.period }

// Injected returns the number of flits injected so far (for utilization
// statistics).
func (c *Channel) Injected() uint64 { return c.injected }

// NextSlot returns the earliest tick >= now at which a flit may be injected.
func (c *Channel) NextSlot(now sim.Tick) sim.Tick {
	if c.nextSlot > now {
		return c.nextSlot
	}
	return now
}

// Available reports whether a flit may be injected at the given tick.
func (c *Channel) Available(now sim.Tick) bool { return c.nextSlot <= now }

// InFlight returns the number of flits currently traversing the channel.
func (c *Channel) InFlight() int { return len(c.pending) - c.head }

// Inject sends a flit down the channel. The caller must respect the
// channel's bandwidth: injecting before NextSlot panics. The flit arrives at
// the sink latency ticks later.
func (c *Channel) Inject(f *types.Flit) {
	now := c.Sim().Now()
	if now.Tick < c.nextSlot {
		c.Panicf("flit injected at %d before next slot %d (bandwidth violation)", now.Tick, c.nextSlot)
	}
	if c.sink == nil {
		c.Panicf("flit injected into unconnected channel")
	}
	// Every channel hop is a touch point for the pool-aliasing sentinel: the
	// flit must still be in flight under its injection generation.
	c.v.FlitTouched(f)
	c.nextSlot = now.Tick + c.period
	c.injected++
	c.tp.FlitInjected()
	f.SendTime = now.Tick
	at := now.Tick + c.latency
	c.pending = append(c.pending, flitFlight{at: at, f: f})
	if !c.scheduled {
		c.scheduled = true
		c.Sim().Schedule(c, sim.Time{Tick: at}, evDeliver, nil)
	}
}

// ProcessEvent delivers the head flit and re-arms for the next one.
func (c *Channel) ProcessEvent(ev *sim.Event) {
	now := c.Sim().Now().Tick
	fl := c.pending[c.head]
	c.pending[c.head].f = nil
	c.head++
	if c.head == len(c.pending) {
		c.pending = c.pending[:0]
		c.head = 0
	} else if c.head >= 64 && c.head*2 >= len(c.pending) {
		n := copy(c.pending, c.pending[c.head:])
		c.pending = c.pending[:n]
		c.head = 0
	}
	if fl.at != now {
		c.Panicf("flit delivery at %d, expected %d", now, fl.at)
	}
	if c.head < len(c.pending) {
		c.Sim().Schedule(c, sim.Time{Tick: c.pending[c.head].at}, evDeliver, nil)
	} else {
		c.scheduled = false
	}
	fl.f.ReceiveTime = now
	if c.sp.Tracked(fl.f) {
		// Channel exit is the uniform hop boundary: serialization wait plus
		// propagation is charged to the wire, and the span moves to the next
		// hop. This fires for injection, router-router and ejection links
		// alike, so every hop on the path ends with exactly one wire step.
		c.sp.Step(now, fl.f, telemetry.SpanWire)
	}
	c.sink.ReceiveFlit(c.sinkPort, fl.f)
}

// Sink returns the connected flit sink and its port; the stall diagnostician
// uses it to follow blocked dependency chains across links.
func (c *Channel) Sink() (types.FlitSink, int) { return c.sink, c.sinkPort }

type creditFlight struct {
	at sim.Tick
	cr types.Credit
}

// CreditChannel is the reverse-direction credit link paired with a flit
// channel. Credits are small and out-of-band, so the model imposes latency
// but no bandwidth limit. Same-tick credits are delivered in one event.
type CreditChannel struct {
	sim.ComponentBase
	latency  sim.Tick
	sink     types.CreditSink
	sinkPort int

	pending   []creditFlight
	head      int
	scheduled bool
}

// NewCredit creates a credit channel with the given propagation latency.
func NewCredit(s *sim.Simulator, name string, latency sim.Tick) *CreditChannel {
	if latency == 0 {
		panic("channel: latency must be at least one tick")
	}
	return &CreditChannel{
		ComponentBase: sim.NewComponentBase(s, name),
		latency:       latency,
	}
}

// SetSink connects the credit channel's receive side.
func (c *CreditChannel) SetSink(sink types.CreditSink, port int) {
	c.sink = sink
	c.sinkPort = port
}

// Latency returns the propagation latency in ticks.
func (c *CreditChannel) Latency() sim.Tick { return c.latency }

// Inject sends a credit; it arrives latency ticks later.
func (c *CreditChannel) Inject(cr types.Credit) {
	if c.sink == nil {
		c.Panicf("credit injected into unconnected channel")
	}
	at := c.Sim().Now().Tick + c.latency
	c.pending = append(c.pending, creditFlight{at: at, cr: cr})
	if !c.scheduled {
		c.scheduled = true
		c.Sim().Schedule(c, sim.Time{Tick: at}, evDeliver, nil)
	}
}

// ProcessEvent delivers every credit due at the current tick.
func (c *CreditChannel) ProcessEvent(ev *sim.Event) {
	now := c.Sim().Now().Tick
	for c.head < len(c.pending) && c.pending[c.head].at == now {
		cr := c.pending[c.head].cr
		c.pending[c.head] = creditFlight{}
		c.head++
		c.sink.ReceiveCredit(c.sinkPort, cr)
	}
	if c.head == len(c.pending) {
		c.pending = c.pending[:0]
		c.head = 0
		c.scheduled = false
		return
	}
	if c.head >= 64 && c.head*2 >= len(c.pending) {
		n := copy(c.pending, c.pending[c.head:])
		c.pending = c.pending[:n]
		c.head = 0
	}
	c.Sim().Schedule(c, sim.Time{Tick: c.pending[c.head].at}, evDeliver, nil)
}
