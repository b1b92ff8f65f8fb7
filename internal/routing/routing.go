// Package routing defines the abstract routing algorithm API.
//
// Routing algorithms are modeled independently of router microarchitecture:
// a Network implementation supplies a routing algorithm constructor to every
// Router it builds, and the router instantiates one algorithm instance per
// input port (each input port's routing engine operates independently).
// Concrete algorithms live with their topologies (internal/network/...),
// since they own the address arithmetic; this package holds the interface
// and the congestion-comparison helpers shared by adaptive algorithms.
package routing

import (
	"math/rand/v2"

	"supersim/internal/congestion"
	"supersim/internal/sim"
	"supersim/internal/types"
)

// Response is a routing decision: the selected output port and the set of
// virtual channels the packet may be allocated on that port. VCs must be
// nonempty; routers verify that every VC was registered to the algorithm
// (part of the framework's error detection).
type Response struct {
	Port int
	VCs  []int
}

// Algorithm computes the routing decision for a packet's head flit arriving
// at a router input. Implementations may consult the router's congestion
// sensor and may record per-packet state in the pkt.Routing scratch (a
// fixed-size value, so recording state never allocates).
type Algorithm interface {
	// Route returns the output decision for pkt, whose head flit sits at
	// input (port, vc) of the router this algorithm instance belongs to.
	Route(now sim.Tick, pkt *types.Packet, inPort, inVC int) Response
}

// Ctor builds one algorithm instance for one input port of one router.
// Topology packages return closures of this type capturing their geometry.
// sensor is the owning router's congestion sensor, which reads zero
// everywhere unless the network built the router for an algorithm that reads
// it; rng is the simulation's deterministic generator.
type Ctor func(routerID, inputPort int, sensor congestion.Sensor, rng *rand.Rand) Algorithm

// Candidate is one (port, vc) option under consideration by an adaptive
// algorithm.
type Candidate struct {
	Port int
	VC   int
}

// LeastCongested returns the candidate with the lowest sensed congestion,
// breaking ties uniformly at random (using the deterministic simulation
// rng). It panics on an empty candidate list.
func LeastCongested(now sim.Tick, sensor congestion.Sensor, rng *rand.Rand, cands []Candidate) Candidate {
	if len(cands) == 0 {
		panic("routing: no candidates")
	}
	best := cands[0]
	bestVal := sensor.Congestion(now, best.Port, best.VC)
	ties := 1
	for _, c := range cands[1:] {
		v := sensor.Congestion(now, c.Port, c.VC)
		switch {
		case v < bestVal:
			best, bestVal, ties = c, v, 1
		case v == bestVal:
			// Reservoir sampling keeps tie-breaking uniform in one pass.
			ties++
			if rng.IntN(ties) == 0 {
				best = c
			}
		}
	}
	return best
}

// AlgorithmFunc adapts a function to the Algorithm interface.
type AlgorithmFunc func(now sim.Tick, pkt *types.Packet, inPort, inVC int) Response

// Route implements Algorithm.
func (f AlgorithmFunc) Route(now sim.Tick, pkt *types.Packet, inPort, inVC int) Response {
	return f(now, pkt, inPort, inVC)
}
