// Package channel models the unidirectional links that connect routers and
// interfaces. A flit channel carries one flit per channel cycle in the
// forward direction; a credit channel carries flow control credits in the
// reverse direction. Both impose a fixed propagation latency — the dominant
// term in large-scale networks where cables run tens of meters.
//
// A channel schedules no events of its own. It checks and accounts for each
// send, then appends the flit or credit to its receiver's arrival Line, and
// the receiver holds one pending event per distinct arrival tick for all of
// its inbound channels together. That keeps the global event queue small
// even with hundreds of flits in flight per link, and wakes a router once
// per tick however many of its ports receive.
package channel

import (
	"fmt"

	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

// end is what both channel kinds share: identity, latency and the
// receiving end.
type end struct {
	name     string
	s        *sim.Simulator
	latency  sim.Tick
	sink     Receiver
	sinkPort int
	line     *Line // sink's arrival line
	in       int32 // inbound index on line
	lane     int   // lane of line
}

// connect registers the channel with the receiver's arrival line.
func (e *end) connect(sink Receiver, port int, credit bool) {
	e.sink, e.sinkPort, e.line = sink, port, sink.Arrivals()
	e.in, e.lane = e.line.register(port, e.latency, credit)
}

// Name returns the channel's name.
func (e *end) Name() string { return e.name }

// Latency returns the propagation latency in ticks.
func (e *end) Latency() sim.Tick { return e.latency }

// panicf raises a model error with the channel's name and the time attached.
//
//go:noinline
func (e *end) panicf(format string, args ...any) {
	panic(fmt.Sprintf("%s @%v: %s", e.name, e.s.Now(), fmt.Sprintf(format, args...)))
}

// Channel is a unidirectional flit link with bandwidth of one flit per
// period ticks and a fixed propagation latency in ticks.
type Channel struct {
	end
	period   sim.Tick
	nextSlot sim.Tick // earliest tick the next flit may be injected
	injected uint64

	tp *telemetry.ChannelProbe // nil unless telemetry is attached
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
		end:    end{name: name, s: s, latency: latency},
		period: period,
		tp:     telemetry.ForChannel(s, name, period),
	}
}

// SetSink connects the channel's receive side to a receiver; delivered
// flits arrive with the given port number. The channel becomes the next
// inbound index of the receiver's arrival line.
func (c *Channel) SetSink(sink Receiver, port int) { c.connect(sink, port, false) }

// Period returns the channel cycle time in ticks.
func (c *Channel) Period() sim.Tick { return c.period }

// Injected returns the number of flits injected so far: utilization
// statistics, and the flit movements core's progress watchdog counts.
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
func (c *Channel) InFlight() int {
	if c.line == nil {
		return 0
	}
	return c.line.pending(c.in)
}

// Inject sends a flit down the channel on virtual channel vc. The caller
// must respect the channel's bandwidth: injecting before NextSlot panics.
// The flit arrives at the sink, on vc, latency ticks later.
func (c *Channel) Inject(f *types.Flit, vc int) {
	now := c.s.Now().Tick
	if now < c.nextSlot {
		c.panicf("flit injected at %d before next slot %d (bandwidth violation)", now, c.nextSlot)
	}
	if c.line == nil {
		c.panicf("flit injected into unconnected channel")
	}
	c.nextSlot = now + c.period
	c.injected++
	c.tp.FlitInjected()
	c.line.add(c.lane, now+c.latency, arrival{f: f, in: c.in, vc: int32(vc)})
}

// Sink returns the connected receiver and its port; the stall diagnostician
// uses it to follow blocked dependency chains across links.
func (c *Channel) Sink() (types.FlitSink, int) { return c.sink, c.sinkPort }

// CreditChannel is the reverse-direction credit link paired with a flit
// channel. Credits are small and out-of-band, so the model imposes latency
// but no bandwidth limit.
type CreditChannel struct {
	end
}

// NewCredit creates a credit channel with the given propagation latency.
func NewCredit(s *sim.Simulator, name string, latency sim.Tick) *CreditChannel {
	if latency == 0 {
		panic("channel: latency must be at least one tick")
	}
	return &CreditChannel{end{name: name, s: s, latency: latency}}
}

// SetSink connects the credit channel's receive side; it becomes the next
// inbound index of the receiver's arrival line.
func (c *CreditChannel) SetSink(sink Receiver, port int) { c.connect(sink, port, true) }

// Inject sends a credit; it arrives latency ticks later.
func (c *CreditChannel) Inject(cr types.Credit) {
	if c.line == nil {
		c.panicf("credit injected into unconnected channel")
	}
	c.line.add(c.lane, c.s.Now().Tick+c.latency, arrival{in: c.in, vc: int32(cr.VC)})
}
