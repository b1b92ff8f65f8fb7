// Package parkinglot implements the linear-chain stress topology that
// creates the parking lot problem: terminals along a chain all sending
// toward one end merge at every router, so round-robin arbitration gives
// exponentially less bandwidth to farther terminals. Age-based arbitration
// is known to fix this unfairness, and the topology exists to demonstrate
// exactly that (configure router.crossbar_policy accordingly).
package parkinglot

import (
	"math/rand/v2"

	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/network"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func init() {
	network.Registry.Register("parking_lot", func(s *sim.Simulator, cfg *config.Settings) network.Network {
		return New(s, cfg)
	})
}

// ParkingLot is a linear array of routers, one terminal each. Ports:
// 0 terminal, 1 toward lower indices, 2 toward higher indices.
type ParkingLot struct {
	network.Base
	n   int
	vcs int
}

// New builds a parking lot chain from the network settings block.
func New(s *sim.Simulator, cfg *config.Settings) *ParkingLot {
	p := &ParkingLot{Base: network.NewBase(s, cfg)}
	p.n = int(cfg.UInt("routers"))
	if p.n < 2 {
		panic("parkinglot: at least 2 routers required")
	}
	p.vcs = int(cfg.UIntOr("router.num_vcs", 1))

	all := make([]int, p.vcs)
	for i := range all {
		all[i] = i
	}
	rc := func(routerID, inputPort int, sensor congestion.Sensor, rng *rand.Rand) routing.Algorithm {
		return routing.AlgorithmFunc(func(now sim.Tick, pkt *types.Packet, inPort, inVC int) routing.Response {
			dst := pkt.Dst()
			switch {
			case dst < routerID:
				return routing.Response{Port: 1, VCs: all}
			case dst > routerID:
				return routing.Response{Port: 2, VCs: all}
			default:
				return routing.Response{Port: 0, VCs: all}
			}
		})
	}
	for id := 0; id < p.n; id++ {
		p.BuildRouter(id, 3, rc, false)
	}
	for id := 0; id+1 < p.n; id++ {
		p.LinkBidir(p.Routers[id], 2, p.Routers[id+1], 1)
	}
	policy := func(pkt *types.Packet) []int { return all }
	for t := 0; t < p.n; t++ {
		ifc := p.BuildInterface(t, p.vcs, policy)
		p.AttachTerminal(ifc, p.Routers[t], 0)
	}
	return p
}
