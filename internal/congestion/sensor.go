package congestion

import (
	"supersim/internal/config"
	"supersim/internal/factory"
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

// Tracker is the update side fed by the router as its credit state changes.
type Tracker interface {
	Sensor
	// AddOutput adjusts the output queue occupancy of (port, vc) by delta flits.
	AddOutput(now sim.Tick, port, vc, delta int)
	// AddDownstream adjusts the downstream credits-in-use of (port, vc) by delta.
	AddDownstream(now sim.Tick, port, vc, delta int)
}

// Ctor is the constructor signature registered by sensor implementations.
type Ctor func(cfg *config.Settings, ports, vcs int) Tracker

// Registry holds all congestion sensor implementations.
var Registry = factory.NewRegistry[Ctor]("congestion sensor")

// New builds the sensor named by cfg's "type" setting (default "credit").
func New(cfg *config.Settings, ports, vcs int) Tracker {
	typ := cfg.StringOr("type", "credit")
	return Registry.MustLookup(typ)(cfg, ports, vcs)
}

func init() {
	Registry.Register("credit", func(cfg *config.Settings, ports, vcs int) Tracker {
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
		return NewCreditSensor(ports, vcs, gran, src, sim.Tick(cfg.UIntOr("latency", 0)))
	})
	Registry.Register("null", func(cfg *config.Settings, ports, vcs int) Tracker {
		return NullSensor{}
	})
}

// CreditSensor is the supplied credit-accounting congestion sensor. It
// supports per-VC or per-port granularity, output / downstream / combined
// credit sources, and a configurable propagation (sensing) latency.
type CreditSensor struct {
	gran    Granularity
	src     Source
	latency sim.Tick
	ports   int
	vcs     int

	outputOcc []int // [port*vcs+vc] flits in output queue
	downUsed  []int // [port*vcs+vc] downstream credits in use

	// vals is the delayed history Congestion reads: per (port, vc) under
	// PerVC, per port under PerPort. The other granularity is never read, so
	// it is not kept.
	vals []DelayedValue
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
		outputOcc: make([]int, ports*vcs),
		downUsed:  make([]int, ports*vcs),
		vals:      make([]DelayedValue, n),
	}
	for i := range cs.vals {
		cs.vals[i] = *NewDelayedValue(latency, 0)
	}
	return cs
}

// Latency returns the configured sensing latency in ticks.
func (cs *CreditSensor) Latency() sim.Tick { return cs.latency }

func (cs *CreditSensor) idx(port, vc int) int {
	if port < 0 || port >= cs.ports || vc < 0 || vc >= cs.vcs {
		panic("congestion: port/vc out of range")
	}
	return port*cs.vcs + vc
}

func (cs *CreditSensor) score(i int) float64 {
	switch cs.src {
	case SourceOutput:
		return float64(cs.outputOcc[i])
	case SourceDownstream:
		return float64(cs.downUsed[i])
	default:
		return float64(cs.outputOcc[i] + cs.downUsed[i])
	}
}

// update records (port, vc)'s new score in the history Congestion reads.
func (cs *CreditSensor) update(now sim.Tick, port, vc int) {
	if cs.gran == PerPort {
		total := 0.0
		for v := 0; v < cs.vcs; v++ {
			total += cs.score(port*cs.vcs + v)
		}
		cs.vals[port].Set(now, total)
		return
	}
	i := cs.idx(port, vc)
	cs.vals[i].Set(now, cs.score(i))
}

// AddOutput adjusts output queue occupancy; negative counts panic (credits
// never go negative, buffers never underrun).
func (cs *CreditSensor) AddOutput(now sim.Tick, port, vc, delta int) {
	i := cs.idx(port, vc)
	cs.outputOcc[i] += delta
	if cs.outputOcc[i] < 0 {
		panic("congestion: output occupancy went negative")
	}
	cs.update(now, port, vc)
}

// AddDownstream adjusts downstream credits-in-use; negative counts panic.
func (cs *CreditSensor) AddDownstream(now sim.Tick, port, vc, delta int) {
	i := cs.idx(port, vc)
	cs.downUsed[i] += delta
	if cs.downUsed[i] < 0 {
		panic("congestion: downstream usage went negative")
	}
	cs.update(now, port, vc)
}

// Congestion returns the delayed estimate for (port, vc) under the
// configured granularity.
func (cs *CreditSensor) Congestion(now sim.Tick, port, vc int) float64 {
	if cs.gran == PerPort {
		if port < 0 || port >= cs.ports {
			panic("congestion: port out of range")
		}
		return cs.vals[port].Get(now)
	}
	return cs.vals[cs.idx(port, vc)].Get(now)
}

// NullSensor reports zero congestion everywhere; oblivious routing uses it.
type NullSensor struct{}

// Congestion always returns 0.
func (NullSensor) Congestion(now sim.Tick, port, vc int) float64 { return 0 }

// AddOutput is a no-op.
func (NullSensor) AddOutput(now sim.Tick, port, vc, delta int) {}

// AddDownstream is a no-op.
func (NullSensor) AddDownstream(now sim.Tick, port, vc, delta int) {}
