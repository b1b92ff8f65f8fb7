// Package foldedclos implements the folded-Clos (k-ary n-tree / fat-tree)
// topology with adaptive uprouting: on the way up, each packet chooses the
// least congested up port (per the router's congestion sensor); once its
// subtree contains the destination, the down path is deterministic.
package foldedclos

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
	network.Registry.Register("folded_clos", func(s *sim.Simulator, cfg *config.Settings) network.Network {
		return New(s, cfg)
	})
}

// FoldedClos is a k-ary n-tree: levels 0..n-1, k^n terminals. Routers at
// levels 0..n-2 have k down ports (0..k-1) and k up ports (k..2k-1); root
// routers (level n-1) have k down ports only.
//
// Router addressing follows the classic digit scheme: a router at level l is
// identified by n-1 base-k digits w[n-2..0]. Up port u of router (l, w)
// connects to router (l+1, w') where w' is w with digit l replaced by u,
// arriving on down port w[l].
type FoldedClos struct {
	network.Base
	k      int // half radix: down (and up) ports per router
	levels int
	vcs    int
	perLvl int // routers per level = k^(n-1)
	adapt  bool
}

// New builds a folded-Clos from the network settings block.
func New(s *sim.Simulator, cfg *config.Settings) *FoldedClos {
	f := &FoldedClos{Base: network.NewBase(s, cfg)}
	f.k = int(cfg.UInt("half_radix"))
	f.levels = int(cfg.UInt("levels"))
	if f.k < 2 {
		panic("foldedclos: half_radix must be at least 2")
	}
	if f.levels < 2 {
		panic("foldedclos: at least 2 levels required")
	}
	f.vcs = int(cfg.UIntOr("router.num_vcs", 1))
	switch alg := cfg.StringOr("routing.algorithm", "adaptive_uprouting"); alg {
	case "adaptive_uprouting":
		f.adapt = true
	case "oblivious_uprouting":
		f.adapt = false
	default:
		panic("foldedclos: unknown routing algorithm " + alg)
	}

	f.perLvl = 1
	for i := 0; i < f.levels-1; i++ {
		f.perLvl *= f.k
	}
	all := make([]int, f.vcs)
	for i := range all {
		all[i] = i
	}
	up := make([]routing.Candidate, f.k)
	for u := range up {
		up[u] = routing.Candidate{Port: f.k + u, VC: 0}
	}
	rc := func(routerID, inputPort int, sensor congestion.Sensor, rng *rand.Rand) routing.Algorithm {
		return f.newAlg(routerID, sensor, rng, all, up)
	}
	// Routers level by level; id = level*perLvl + index(w).
	for lvl := 0; lvl < f.levels; lvl++ {
		radix := 2 * f.k
		if lvl == f.levels-1 {
			radix = f.k // roots: all ports face down
		}
		for w := 0; w < f.perLvl; w++ {
			f.BuildRouter(lvl*f.perLvl+w, radix, rc)
		}
	}
	// Up links: router (l, w) up port k+u <-> router (l+1, replace(w,l,u))
	// down port digit(w, l).
	for lvl := 0; lvl < f.levels-1; lvl++ {
		for w := 0; w < f.perLvl; w++ {
			lower := f.Routers[lvl*f.perLvl+w]
			for u := 0; u < f.k; u++ {
				upperW := f.replaceDigit(w, lvl, u)
				upper := f.Routers[(lvl+1)*f.perLvl+upperW]
				f.LinkBidir(lower, f.k+u, upper, f.digit(w, lvl))
			}
		}
	}
	// Terminals: terminal t attaches to leaf router w = t/k, down port t%k.
	policy := func(pkt *types.Packet) []int { return all }
	numTerms := f.perLvl * f.k
	for t := 0; t < numTerms; t++ {
		ifc := f.BuildInterface(t, f.vcs, policy)
		f.AttachTerminal(ifc, f.Routers[t/f.k], t%f.k)
	}
	return f
}

// digit extracts base-k digit position d of index w (0 = least significant).
func (f *FoldedClos) digit(w, d int) int {
	for i := 0; i < d; i++ {
		w /= f.k
	}
	return w % f.k
}

// replaceDigit returns w with base-k digit position d replaced by v.
func (f *FoldedClos) replaceDigit(w, d, v int) int {
	stride := 1
	for i := 0; i < d; i++ {
		stride *= f.k
	}
	return w + (v-f.digit(w, d))*stride
}

// level and index decompose a router id.
func (f *FoldedClos) level(rid int) int { return rid / f.perLvl }
func (f *FoldedClos) index(rid int) int { return rid % f.perLvl }

// upAlg routes up adaptively (or obliviously) until the current router's
// subtree covers the destination, then down deterministically by destination
// digits.
type upAlg struct {
	f      *FoldedClos
	sensor congestion.Sensor
	rng    *rand.Rand
	all    []int               // every VC; shared, read-only
	up     []routing.Candidate // the k up ports, as adaptive candidates; shared, read-only
	// The router's subtree covers terminals [lo, lo+span); each down port
	// covers sub of them.
	lo, span, sub int
}

// newAlg builds the routing algorithm of router rid. Router (l, w) covers the
// terminals t whose t/k agrees with w in every digit from position l up: the
// k^(l+1) terminals from (w/k^l)·k^(l+1) on. The down port toward a covered
// terminal is the terminal's digit l.
func (f *FoldedClos) newAlg(rid int, sensor congestion.Sensor, rng *rand.Rand, all []int, up []routing.Candidate) *upAlg {
	sub := 1
	for i := 0; i < f.level(rid); i++ {
		sub *= f.k
	}
	span := sub * f.k
	return &upAlg{f: f, sensor: sensor, rng: rng, all: all, up: up,
		lo: f.index(rid) / sub * span, span: span, sub: sub}
}

// Route implements routing.Algorithm.
func (a *upAlg) Route(now sim.Tick, pkt *types.Packet, inPort, inVC int) routing.Response {
	if off := pkt.Dst() - a.lo; uint(off) < uint(a.span) {
		// Down: the child covering dst is selected by the terminal digit at
		// this level; at the leaf that digit is the terminal port.
		return routing.Response{Port: off / a.sub, VCs: a.all}
	}
	// Up: choose among the k up ports.
	f := a.f
	if !f.adapt {
		return routing.Response{Port: f.k + a.rng.IntN(f.k), VCs: a.all}
	}
	best := routing.LeastCongested(now, a.sensor, a.rng, a.up)
	return routing.Response{Port: best.Port, VCs: a.all}
}
