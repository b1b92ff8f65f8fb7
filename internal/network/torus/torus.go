// Package torus implements the k-ary n-cube (Torus) topology with
// dimension-order routing and dateline virtual channel deadlock avoidance.
package torus

import (
	"fmt"
	"math/rand/v2"

	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/network"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func init() {
	network.Registry.Register("torus", func(s *sim.Simulator, cfg *config.Settings) network.Network {
		return New(s, cfg)
	})
}

// Torus is an n-dimensional torus: widths[d] routers per dimension, each
// with `concentration` terminals and bidirectional links to both ring
// neighbors in every dimension.
//
// Port layout per router: [0, conc) terminals, then for each dimension d the
// plus-direction port conc+2d and the minus-direction port conc+2d+1.
type Torus struct {
	network.Base
	widths []int
	conc   int
	vcs    int
}

// New builds a torus from the network settings block.
func New(s *sim.Simulator, cfg *config.Settings) *Torus {
	t := &Torus{Base: network.NewBase(s, cfg)}
	for _, w := range cfg.UIntList("dimensions") {
		if w < 2 {
			panic("torus: each dimension width must be at least 2")
		}
		t.widths = append(t.widths, int(w))
	}
	if len(t.widths) == 0 {
		panic("torus: at least one dimension required")
	}
	t.conc = int(cfg.UIntOr("concentration", 1))
	if t.conc < 1 {
		panic("torus: concentration must be positive")
	}
	t.vcs = int(cfg.UInt("router.num_vcs"))
	if t.vcs < 2 || t.vcs%2 != 0 {
		panic("torus: dimension order routing requires an even num_vcs >= 2 (dateline classes)")
	}
	alg := cfg.StringOr("routing.algorithm", "dimension_order")
	if alg != "dimension_order" {
		panic("torus: unknown routing algorithm " + alg)
	}

	numRouters := 1
	for _, w := range t.widths {
		numRouters *= w
	}
	radix := t.conc + 2*len(t.widths)

	half := t.vcs / 2
	class0 := make([]int, half)
	class1 := make([]int, half)
	all := make([]int, t.vcs)
	for i := 0; i < half; i++ {
		class0[i] = i
		class1[i] = half + i
	}
	for i := range all {
		all[i] = i
	}
	rc := func(routerID, inputPort int, sensor congestion.Sensor, rng *rand.Rand) routing.Algorithm {
		return &dorAlg{t: t, router: routerID, class0: class0, class1: class1, all: all}
	}
	for id := 0; id < numRouters; id++ {
		t.BuildRouter(id, radix, rc, false)
	}
	// Inter-router links: one bidirectional pair per dimension per router
	// toward the plus neighbor.
	for id := 0; id < numRouters; id++ {
		for d := range t.widths {
			nb := t.neighbor(id, d, +1)
			t.LinkBidir(t.Routers[id], t.portPlus(d), t.Routers[nb], t.portMinus(d))
		}
	}
	// Terminals: packets inject on dateline class 0.
	policy := func(pkt *types.Packet) []int { return class0 }
	for term := 0; term < numRouters*t.conc; term++ {
		ifc := t.BuildInterface(term, t.vcs, policy)
		t.AttachTerminal(ifc, t.Routers[term/t.conc], term%t.conc)
	}
	return t
}

func (t *Torus) portPlus(d int) int  { return t.conc + 2*d }
func (t *Torus) portMinus(d int) int { return t.conc + 2*d + 1 }

// coord extracts dimension d's coordinate of a router id (dimension 0 is the
// least significant).
func (t *Torus) coord(rid, d int) int {
	for i := 0; i < d; i++ {
		rid /= t.widths[i]
	}
	return rid % t.widths[d]
}

// neighbor returns the router one step in direction dir (+1/-1) along d.
func (t *Torus) neighbor(rid, d, dir int) int {
	stride := 1
	for i := 0; i < d; i++ {
		stride *= t.widths[i]
	}
	w := t.widths[d]
	c := t.coord(rid, d)
	nc := ((c+dir)%w + w) % w
	return rid + (nc-c)*stride
}

// dorAlg is deterministic dimension-order routing with dateline VC classes:
// packets travel dimensions in ascending order, take the shortest ring
// direction, and move to the upper half of the VCs after crossing a ring's
// dateline.
type dorAlg struct {
	t              *Torus
	router         int
	class0, class1 []int
	all            []int
}

// Route implements routing.Algorithm.
func (a *dorAlg) Route(now sim.Tick, pkt *types.Packet, inPort, inVC int) routing.Response {
	t := a.t
	dst := pkt.Dst()
	dstR := dst / t.conc
	if a.router == dstR {
		return routing.Response{Port: dst % t.conc, VCs: a.all}
	}
	for d := 0; d < len(t.widths); d++ {
		cc, dc := t.coord(a.router, d), t.coord(dstR, d)
		if cc == dc {
			continue
		}
		w := t.widths[d]
		plusDist := ((dc-cc)%w + w) % w
		dir := +1
		if plusDist > w-plusDist {
			dir = -1
		}
		wraps := (dir == +1 && cc == w-1) || (dir == -1 && cc == 0)
		// The routing scratch tracks the current dimension (Phase) and its
		// dateline-crossed flag; entering a new dimension resets the flag.
		st := &pkt.Routing
		if !st.Valid || int(st.Phase) != d {
			*st = types.RoutingScratch{Valid: true, Phase: int8(d)}
		}
		vcs := a.class0
		if st.Dateline || wraps {
			vcs = a.class1
		}
		if wraps {
			st.Dateline = true
		}
		port := t.portPlus(d)
		if dir == -1 {
			port = t.portMinus(d)
		}
		return routing.Response{Port: port, VCs: vcs}
	}
	panic(fmt.Sprintf("torus: packet %v routed at its destination router", pkt))
}
