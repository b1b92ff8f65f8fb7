// Package dragonfly implements the technology-driven Dragonfly topology:
// groups of `a` routers, all-to-all connected inside each group by local
// channels, with `h` global channels per router connecting the groups
// all-to-all. Routing options are minimal (local-global-local), oblivious
// Valiant over a random intermediate group, and UGAL.
package dragonfly

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
	network.Registry.Register("dragonfly", func(s *sim.Simulator, cfg *config.Settings) network.Network {
		return New(s, cfg)
	})
}

const (
	algMinimal = iota
	algValiant
	algUGAL
)

// Dragonfly is the topology component. The balanced configuration has
// groups = a*h + 1 so that every group pair is connected by exactly one
// global channel.
//
// Port layout per router: [0, p) terminals, [p, p+a-1) local channels
// (offset o reaches router (r+o) mod a of the group), then h global ports.
type Dragonfly struct {
	network.Base
	p, a, h int
	groups  int
	vcs     int
	alg     int
	thresh  float64

	// VC sets, built once and shared by every route: single[v] is {v}, all
	// is every VC (ejection). Routing algorithms must treat them as
	// immutable.
	single [][]int
	all    []int
}

// New builds a dragonfly from the network settings block.
func New(s *sim.Simulator, cfg *config.Settings) *Dragonfly {
	d := &Dragonfly{Base: network.NewBase(s, cfg)}
	d.p = int(cfg.UInt("concentration"))
	d.a = int(cfg.UInt("group_size"))
	d.h = int(cfg.UInt("global_links"))
	if d.p < 1 || d.a < 2 || d.h < 1 {
		panic("dragonfly: need concentration >= 1, group_size >= 2, global_links >= 1")
	}
	d.groups = d.a*d.h + 1
	d.vcs = int(cfg.UIntOr("router.num_vcs", 2))
	switch a := cfg.StringOr("routing.algorithm", "minimal"); a {
	case "minimal":
		d.alg = algMinimal
	case "valiant":
		d.alg = algValiant
	case "ugal":
		d.alg = algUGAL
	default:
		panic("dragonfly: unknown routing algorithm " + a)
	}
	need := 2
	if d.alg != algMinimal {
		need = 3
	}
	if d.vcs < need {
		panic("dragonfly: this routing algorithm requires more VCs")
	}
	d.thresh = cfg.FloatOr("routing.ugal_bias", 0)
	d.all = make([]int, d.vcs)
	d.single = make([][]int, d.vcs)
	for v := range d.all {
		d.all[v] = v
		d.single[v] = []int{v}
	}

	numRouters := d.groups * d.a
	radix := d.p + (d.a - 1) + d.h
	rc := func(routerID, inputPort int, sensor congestion.Sensor, rng *rand.Rand) routing.Algorithm {
		return &dfAlg{d: d, router: routerID, sensor: sensor, rng: rng}
	}
	for id := 0; id < numRouters; id++ {
		d.BuildRouter(id, radix, rc)
	}
	// Local all-to-all within each group.
	for g := 0; g < d.groups; g++ {
		for r := 0; r < d.a; r++ {
			for o := 1; o < d.a; o++ {
				src := g*d.a + r
				dst := g*d.a + (r+o)%d.a
				d.Link(d.Routers[src], d.localPort(o), d.Routers[dst], d.localPort(d.a-o))
			}
		}
	}
	// Global all-to-all between groups: slot l of group g (router l/h,
	// global port l%h) connects to group l (or l+1 past itself).
	for g := 0; g < d.groups; g++ {
		for l := 0; l < d.a*d.h; l++ {
			tg := l
			if tg >= g {
				tg++
			}
			if tg < g {
				continue // wired when visiting the smaller group id
			}
			back := g // g's slot in tg's numbering: tg > g so slot is g
			sr := g*d.a + l/d.h
			tr := tg*d.a + back/d.h
			d.LinkBidir(d.Routers[sr], d.globalPort(l%d.h), d.Routers[tr], d.globalPort(back%d.h))
		}
	}
	policy := func(pkt *types.Packet) []int { return d.single[0] }
	for t := 0; t < numRouters*d.p; t++ {
		ifc := d.BuildInterface(t, d.vcs, policy)
		d.AttachTerminal(ifc, d.Routers[t/d.p], t%d.p)
	}
	return d
}

func (d *Dragonfly) localPort(o int) int  { return d.p + o - 1 }
func (d *Dragonfly) globalPort(j int) int { return d.p + d.a - 1 + j }

// globalOwner returns the router index (within group g) and global port that
// hold group g's link to group tg.
func (d *Dragonfly) globalOwner(g, tg int) (router, port int) {
	slot := tg
	if slot > g {
		slot--
	}
	return slot / d.h, slot % d.h
}

// dfAlg implements minimal / Valiant / UGAL dragonfly routing with the
// standard ascending VC classes: local hops use VC 0 in the source group,
// VC 1 in an intermediate group and the last class in the destination group;
// global hops use VC 0 (first) and VC 1 (second).
type dfAlg struct {
	d      *Dragonfly
	router int
	sensor congestion.Sensor
	rng    *rand.Rand
}

// Route implements routing.Algorithm.
func (a *dfAlg) Route(now sim.Tick, pkt *types.Packet, inPort, inVC int) routing.Response {
	d := a.d
	g := a.router / d.a
	dst := pkt.Dst()
	dstR := dst / d.p
	dg := dstR / d.a

	// The routing scratch's Dateline flag tracks a non-minimal packet's
	// progress past its intermediate group; Valid marks the source decision
	// as taken.
	st := &pkt.Routing
	if d.alg != algMinimal && pkt.HopCount == 0 && !pkt.NonMinimal && !st.Valid {
		a.sourceDecision(now, pkt, g, dg, dstR)
	}
	st.Valid = true
	if pkt.NonMinimal && !st.Dateline && (g == int(pkt.Intermediate) || g == dg) {
		st.Dateline = true
	}
	if g == dg {
		lastLocal := 1
		if pkt.NonMinimal {
			lastLocal = 2
		}
		if a.router == dstR {
			return routing.Response{Port: dst % d.p, VCs: d.all}
		}
		o := ((dstR-a.router)%d.a + d.a) % d.a
		return routing.Response{Port: d.localPort(o), VCs: d.single[lastLocal]}
	}
	tg := dg
	if pkt.NonMinimal && !st.Dateline {
		tg = int(pkt.Intermediate)
	}
	ro, gp := d.globalOwner(g, tg)
	class := 0
	if pkt.NonMinimal && st.Dateline {
		class = 1
	}
	if a.router%d.a == ro {
		return routing.Response{Port: d.globalPort(gp), VCs: d.single[class]}
	}
	o := ((ro-a.router%d.a)%d.a + d.a) % d.a
	return routing.Response{Port: d.localPort(o), VCs: d.single[class]}
}

// hops counts the minimal path length from router r to router dstR.
func (a *dfAlg) hops(r, dstR int) int {
	d := a.d
	g, dg := r/d.a, dstR/d.a
	if g == dg {
		if r == dstR {
			return 0
		}
		return 1
	}
	n := 1 // the global hop
	ro, _ := d.globalOwner(g, dg)
	if r%d.a != ro {
		n++
	}
	back, _ := d.globalOwner(dg, g)
	if dg*d.a+back != dstR {
		n++
	}
	return n
}

func (a *dfAlg) sourceDecision(now sim.Tick, pkt *types.Packet, g, dg, dstR int) {
	d := a.d
	if g == dg || d.groups <= 2 {
		return
	}
	ig := a.rng.IntN(d.groups)
	for ig == g || ig == dg {
		ig = a.rng.IntN(d.groups)
	}
	if d.alg == algValiant {
		pkt.Intermediate = int32(ig)
		pkt.NonMinimal = true
		return
	}
	firstPort := func(tg int) int {
		ro, gp := d.globalOwner(g, tg)
		if a.router%d.a == ro {
			return d.globalPort(gp)
		}
		o := ((ro-a.router%d.a)%d.a + d.a) % d.a
		return d.localPort(o)
	}
	qMin := a.sensor.Congestion(now, firstPort(dg), 0)
	qNon := a.sensor.Congestion(now, firstPort(ig), 0)
	hMin := float64(a.hops(a.router, dstR))
	// Entry router of the intermediate group, then on to the destination.
	back, _ := d.globalOwner(ig, g)
	entry := ig*d.a + back
	hNon := float64(a.hops(a.router, entry) + a.hops(entry, dstR))
	if hMin*qMin > hNon*(qNon+d.thresh) {
		pkt.Intermediate = int32(ig)
		pkt.NonMinimal = true
	}
}
