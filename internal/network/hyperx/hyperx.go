// Package hyperx implements the HyperX topology: L dimensions with S_l
// routers per dimension, all-to-all connected within each dimension, and T
// terminals per router. HyperX configurations subsume the HyperCube (S_l=2)
// and the Flattened Butterfly. Routing options are minimal dimension-order,
// oblivious Valiant, and UGAL (Universal Globally-Adaptive Load-balancing),
// which compares the sensed congestion of the minimal path against a random
// non-minimal (Valiant) path weighted by hop count.
package hyperx

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
	network.Registry.Register("hyperx", func(s *sim.Simulator, cfg *config.Settings) network.Network {
		return New(s, cfg)
	})
}

// routing algorithm selector
const (
	algMinimal = iota
	algValiant
	algUGAL
)

// HyperX is the topology component.
//
// Port layout per router: [0, conc) terminals, then for each dimension d the
// S_d - 1 ports to the other routers of that dimension: port base_d + (o-1)
// reaches the router whose coordinate is (c + o) mod S_d.
type HyperX struct {
	network.Base
	widths []int
	conc   int
	vcs    int
	alg    int
	thresh float64 // UGAL bias added to the non-minimal estimate
}

// New builds a HyperX from the network settings block.
func New(s *sim.Simulator, cfg *config.Settings) *HyperX {
	h := &HyperX{Base: network.NewBase(s, cfg)}
	for _, w := range cfg.UIntList("widths") {
		if w < 2 {
			panic("hyperx: each dimension width must be at least 2")
		}
		h.widths = append(h.widths, int(w))
	}
	if len(h.widths) == 0 {
		panic("hyperx: at least one dimension required")
	}
	h.conc = int(cfg.UIntOr("concentration", 1))
	if h.conc < 1 {
		panic("hyperx: concentration must be positive")
	}
	h.vcs = int(cfg.UIntOr("router.num_vcs", 1))
	switch a := cfg.StringOr("routing.algorithm", "dimension_order"); a {
	case "dimension_order":
		h.alg = algMinimal
	case "valiant":
		h.alg = algValiant
	case "ugal":
		h.alg = algUGAL
	default:
		panic("hyperx: unknown routing algorithm " + a)
	}
	if h.alg != algMinimal && h.vcs < 2 {
		panic("hyperx: valiant/ugal routing requires num_vcs >= 2 (one per phase)")
	}
	h.thresh = cfg.FloatOr("routing.ugal_bias", 0)

	numRouters := 1
	for _, w := range h.widths {
		numRouters *= w
	}
	radix := h.conc
	for _, w := range h.widths {
		radix += w - 1
	}

	phase0 := []int{0}
	phase1 := []int{1}
	all := make([]int, h.vcs)
	for i := range all {
		all[i] = i
	}
	rc := func(routerID, inputPort int, sensor congestion.Sensor, rng *rand.Rand) routing.Algorithm {
		return &hxAlg{h: h, router: routerID, sensor: sensor, rng: rng,
			phase0: phase0, phase1: phase1, all: all}
	}
	for id := 0; id < numRouters; id++ {
		h.BuildRouter(id, radix, rc)
	}
	// All-to-all links within each dimension (each direction is a distinct
	// port, so Link rather than LinkBidir; the o and S-o offsets pair up).
	for id := 0; id < numRouters; id++ {
		for d := range h.widths {
			for o := 1; o < h.widths[d]; o++ {
				nb := h.neighbor(id, d, o)
				h.Link(h.Routers[id], h.offsetPort(d, o), h.Routers[nb], h.offsetPort(d, h.widths[d]-o))
			}
		}
	}
	policy := func(pkt *types.Packet) []int {
		if h.alg == algMinimal {
			return all
		}
		return phase0
	}
	for t := 0; t < numRouters*h.conc; t++ {
		ifc := h.BuildInterface(t, h.vcs, policy)
		h.AttachTerminal(ifc, h.Routers[t/h.conc], t%h.conc)
	}
	return h
}

// offsetPort returns the port for offset o (1..S_d-1) in dimension d.
func (h *HyperX) offsetPort(d, o int) int {
	base := h.conc
	for i := 0; i < d; i++ {
		base += h.widths[i] - 1
	}
	return base + o - 1
}

func (h *HyperX) coord(rid, d int) int {
	for i := 0; i < d; i++ {
		rid /= h.widths[i]
	}
	return rid % h.widths[d]
}

// neighbor returns the router at coordinate offset o in dimension d.
func (h *HyperX) neighbor(rid, d, o int) int {
	stride := 1
	for i := 0; i < d; i++ {
		stride *= h.widths[i]
	}
	w := h.widths[d]
	c := h.coord(rid, d)
	nc := (c + o) % w
	return rid + (nc-c)*stride
}

// minimalPort returns the port toward dst along the first differing
// dimension, or -1 when rid is dst's router.
func (h *HyperX) minimalPort(rid, dstRouter int) int {
	for d := range h.widths {
		cc, dc := h.coord(rid, d), h.coord(dstRouter, d)
		if cc != dc {
			o := ((dc-cc)%h.widths[d] + h.widths[d]) % h.widths[d]
			return h.offsetPort(d, o)
		}
	}
	return -1
}

// minimalHops counts the remaining minimal hops between routers.
func (h *HyperX) minimalHops(rid, dstRouter int) int {
	hops := 0
	for d := range h.widths {
		if h.coord(rid, d) != h.coord(dstRouter, d) {
			hops++
		}
	}
	return hops
}

// hxAlg routes minimally per dimension; with Valiant or UGAL a packet may
// first visit a random intermediate router (phase 0, VC 0) before heading to
// its destination (phase 1, VC 1), the classic two-phase discipline that
// keeps non-minimal routing deadlock free.
type hxAlg struct {
	h      *HyperX
	router int
	sensor congestion.Sensor
	rng    *rand.Rand
	phase0 []int
	phase1 []int
	all    []int
}

// Route implements routing.Algorithm.
func (a *hxAlg) Route(now sim.Tick, pkt *types.Packet, inPort, inVC int) routing.Response {
	h := a.h
	dst := pkt.Dst()
	dstR := dst / h.conc
	// Source decision for non-minimal algorithms: made once, at injection.
	if h.alg != algMinimal && pkt.HopCount == 0 && pkt.Intermediate < 0 && !pkt.NonMinimal {
		a.sourceDecision(now, pkt, dstR)
	}
	// Phase 0: toward the intermediate router.
	if pkt.Intermediate >= 0 && a.router != int(pkt.Intermediate) {
		return routing.Response{Port: h.minimalPort(a.router, int(pkt.Intermediate)), VCs: a.phase0}
	}
	if pkt.Intermediate >= 0 && a.router == int(pkt.Intermediate) {
		pkt.Intermediate = -1 // phase transition
	}
	if a.router == dstR {
		return routing.Response{Port: dst % h.conc, VCs: a.all}
	}
	vcs := a.phase0
	if h.alg != algMinimal {
		if pkt.NonMinimal {
			vcs = a.phase1
		}
	}
	return routing.Response{Port: h.minimalPort(a.router, dstR), VCs: vcs}
}

// sourceDecision chooses minimal vs non-minimal for this packet. UGAL takes
// the non-minimal (Valiant) path when
//
//	hops_min * q_min > hops_nonmin * (q_nonmin + bias)
//
// where q is the sensed congestion of the candidate first-hop port.
func (a *hxAlg) sourceDecision(now sim.Tick, pkt *types.Packet, dstR int) {
	h := a.h
	if a.router == dstR {
		return
	}
	// Random intermediate router distinct from src and dst.
	numRouters := 1
	for _, w := range h.widths {
		numRouters *= w
	}
	if numRouters <= 2 {
		return // no usable intermediate exists; stay minimal
	}
	inter := a.rng.IntN(numRouters)
	for inter == a.router || inter == dstR {
		inter = a.rng.IntN(numRouters)
	}
	if h.alg == algValiant {
		pkt.Intermediate = int32(inter)
		pkt.NonMinimal = true
		return
	}
	minPort := h.minimalPort(a.router, dstR)
	nonPort := h.minimalPort(a.router, inter)
	qMin := a.sensor.Congestion(now, minPort, 0)
	qNon := a.sensor.Congestion(now, nonPort, 0)
	hMin := float64(h.minimalHops(a.router, dstR))
	hNon := float64(h.minimalHops(a.router, inter) + h.minimalHops(inter, dstR))
	if hMin*qMin > hNon*(qNon+a.h.thresh) {
		pkt.Intermediate = int32(inter)
		pkt.NonMinimal = true
	}
}
