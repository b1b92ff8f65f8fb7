// Package congestion implements the congestion sensor that feeds adaptive
// routing algorithms.
//
// A sensor converts the router's live credit/occupancy state into the
// congestion estimates the routing engines consult. Two properties from the
// paper's case studies are modeled explicitly:
//
//   - Sensing latency (case study A): the propagation of congestion
//     information from the point of calculation inside the microarchitecture
//     to all the routing engines takes 5-20 clock cycles in real switches,
//     not the single cycle most simulators assume. The sensor exposes a
//     delayed view: the value visible at time t is the value that was
//     current at time t - latency.
//
//   - Credit accounting style (case study B): congestion may be accounted
//     per-VC or per-port, and may consider output queue occupancy, downstream
//     (next hop) credits, or both.
//
// A router builds a sensor only when its routing algorithm reads one; the
// others hold a nil *CreditSensor, which ignores updates and reads zero.
package congestion

import (
	"supersim/internal/config"
	"supersim/internal/sim"
)

// Granularity selects how congestion is accounted across virtual channels.
type Granularity int

const (
	// PerVC reports each (port, VC) pair independently.
	PerVC Granularity = iota
	// PerPort aggregates all VCs of a port; every VC of the port reports the
	// same value.
	PerPort
)

// Source selects which credit pools feed the congestion estimate.
type Source int

const (
	// SourceOutput counts flits resident in the router's own output queues.
	SourceOutput Source = iota
	// SourceDownstream counts credits consumed at the next-hop input buffer.
	SourceDownstream
	// SourceBoth combines output occupancy and downstream credit usage.
	SourceBoth
)

// Sensor yields a congestion value for potential paths considered by a
// routing algorithm. Values are raw flit counts (higher = more congested);
// adaptive algorithms only compare them, so no normalization is applied.
type Sensor interface {
	// Congestion returns the estimate visible at time now for output (port, vc).
	Congestion(now sim.Tick, port, vc int) float64
}

// New builds the sensor a router's "congestion_sensor" block configures, for
// a router whose routing algorithm reads one when build is set. The block is
// validated either way. It returns nil, the sensor that reads zero, unless
// build is set and the block's type is "credit" (the default); type "null"
// builds none.
func New(cfg *config.Settings, ports, vcs int, build bool) *CreditSensor {
	var gran Granularity
	switch g := cfg.StringOr("granularity", "vc"); g {
	case "vc":
		gran = PerVC
	case "port":
		gran = PerPort
	default:
		panic("congestion: unknown granularity " + g)
	}
	var src Source
	switch s := cfg.StringOr("source", "both"); s {
	case "output":
		src = SourceOutput
	case "downstream":
		src = SourceDownstream
	case "both":
		src = SourceBoth
	default:
		panic("congestion: unknown source " + s)
	}
	latency := sim.Tick(cfg.UIntOr("latency", 0))
	switch typ := cfg.StringOr("type", "credit"); typ {
	case "credit":
	case "null":
		build = false
	default:
		panic("congestion: unknown sensor type " + typ)
	}
	if !build {
		return nil
	}
	return NewCreditSensor(ports, vcs, gran, src, latency)
}

// CreditSensor is the credit-accounting congestion sensor. It supports
// per-VC or per-port granularity, output / downstream / combined credit
// sources, and a configurable propagation (sensing) latency. A nil
// *CreditSensor is valid: it ignores updates and reads zero everywhere.
type CreditSensor struct {
	gran    Granularity
	src     Source
	latency sim.Tick
	ports   int
	vcs     int

	// cur is each read index's count now: per (port, vc) under PerVC, the
	// running sum over the port's VCs under PerPort.
	cur []int
	// vis is what Congestion reads: cur as it stood latency ticks ago. Under
	// latency 0 it is cur itself.
	vis []int
	// log holds the changes to cur that vis does not show yet, oldest
	// first. It stays empty under latency 0.
	log sim.FIFO[change]
}

// change is one logged update: delta added to read index index at tick at.
type change struct {
	at    sim.Tick
	index int32
	delta int32
}

// NewCreditSensor creates a credit sensor for a router with the given port
// and VC counts.
func NewCreditSensor(ports, vcs int, gran Granularity, src Source, latency sim.Tick) *CreditSensor {
	if ports <= 0 || vcs <= 0 {
		panic("congestion: ports and vcs must be positive")
	}
	n := ports * vcs
	if gran == PerPort {
		n = ports
	}
	cs := &CreditSensor{
		gran: gran, src: src, latency: latency,
		ports: ports, vcs: vcs,
		cur: make([]int, n),
	}
	cs.vis = cs.cur
	if latency > 0 {
		cs.vis = make([]int, n)
	}
	return cs
}

// index returns the read index (port, vc) counts toward.
func (cs *CreditSensor) index(port, vc int) int {
	if uint(port) >= uint(cs.ports) || uint(vc) >= uint(cs.vcs) {
		panic("congestion: port/vc out of range")
	}
	if cs.gran == PerPort {
		return port
	}
	return port*cs.vcs + vc
}

// AddOutput adjusts the output queue occupancy of (port, vc) by delta flits.
func (cs *CreditSensor) AddOutput(now sim.Tick, port, vc, delta int) {
	if cs != nil {
		cs.add(now, port, vc, delta, cs.src != SourceDownstream)
	}
}

// AddDownstream adjusts the downstream credits-in-use of (port, vc) by delta.
func (cs *CreditSensor) AddDownstream(now sim.Tick, port, vc, delta int) {
	if cs != nil {
		cs.add(now, port, vc, delta, cs.src != SourceOutput)
	}
}

// add applies delta to the count (port, vc) feeds when its source is
// counted. A count never goes negative (credits never go negative, buffers
// never underrun). Every update first catches the visible counts up to now,
// so the log holds only the last latency ticks whether or not anything
// reads the sensor.
func (cs *CreditSensor) add(now sim.Tick, port, vc, delta int, counted bool) {
	i := cs.index(port, vc)
	cs.catchUp(now)
	if !counted {
		return
	}
	cs.cur[i] += delta
	if cs.cur[i] < 0 {
		panic("congestion: count went negative")
	}
	if cs.latency > 0 {
		cs.log.Push(change{now, int32(i), int32(delta)})
	}
}

// catchUp moves every logged change at or before now - latency (tick 0
// before tick latency) into the visible counts.
func (cs *CreditSensor) catchUp(now sim.Tick) {
	horizon := sim.Tick(0)
	if now > cs.latency {
		horizon = now - cs.latency
	}
	for cs.log.Len() > 0 && cs.log.Front().at <= horizon {
		ch := cs.log.Pop()
		cs.vis[ch.index] += int(ch.delta)
	}
}

// Congestion returns the delayed estimate for (port, vc) under the
// configured granularity.
func (cs *CreditSensor) Congestion(now sim.Tick, port, vc int) float64 {
	if cs == nil {
		return 0
	}
	i := cs.index(port, vc)
	cs.catchUp(now)
	return float64(cs.vis[i])
}
