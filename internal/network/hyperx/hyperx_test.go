package hyperx

import (
	"math/rand/v2"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/router"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func build(t *testing.T, doc string) *HyperX {
	t.Helper()
	return New(sim.NewSimulator(1), config.MustParse(doc))
}

const h3x4 = `{
  "topology": "hyperx",
  "widths": [3, 4],
  "concentration": 2,
  "channel": {"latency": 2, "period": 1},
  "injection": {"latency": 1},
  "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 4, "crossbar_latency": 1},
  "routing": {"algorithm": "dimension_order"}
}`

func TestShapeAndRadix(t *testing.T) {
	h := build(t, h3x4)
	if h.NumRouters() != 12 || h.NumTerminals() != 24 {
		t.Fatalf("routers=%d terminals=%d", h.NumRouters(), h.NumTerminals())
	}
	// radix = conc 2 + (3-1) + (4-1) = 7
	if h.Router(0).Radix() != 7 {
		t.Fatalf("radix = %d", h.Router(0).Radix())
	}
}

func TestOffsetPorts(t *testing.T) {
	h := build(t, h3x4)
	// dim 0 offsets 1,2 -> ports 2,3; dim 1 offsets 1..3 -> ports 4..6
	if h.offsetPort(0, 1) != 2 || h.offsetPort(0, 2) != 3 {
		t.Fatal("dim 0 ports wrong")
	}
	if h.offsetPort(1, 1) != 4 || h.offsetPort(1, 3) != 6 {
		t.Fatal("dim 1 ports wrong")
	}
}

func TestNeighborAllToAll(t *testing.T) {
	h := build(t, h3x4)
	// router (1, 2) = 1 + 3*2 = 7; offset 2 in dim 0: x=(1+2)%3=0 -> 6
	if nb := h.neighbor(7, 0, 2); nb != 6 {
		t.Fatalf("neighbor = %d", nb)
	}
	// offset 3 in dim 1: y=(2+3)%4=1 -> 1+3=4
	if nb := h.neighbor(7, 1, 3); nb != 4 {
		t.Fatalf("neighbor = %d", nb)
	}
}

func TestMinimalPortAndHops(t *testing.T) {
	h := build(t, h3x4)
	// From router 0 (0,0) to router 7 (1,2): first differing dim 0, offset 1.
	if p := h.minimalPort(0, 7); p != h.offsetPort(0, 1) {
		t.Fatalf("minimal port = %d", p)
	}
	if hops := h.minimalHops(0, 7); hops != 2 {
		t.Fatalf("hops = %d", hops)
	}
	if h.minimalPort(7, 7) != -1 || h.minimalHops(7, 7) != 0 {
		t.Fatal("self routing wrong")
	}
	// Same row: only dim 1 differs.
	if hops := h.minimalHops(0, 9); hops != 1 { // (0,0)->(0,3)
		t.Fatalf("hops = %d", hops)
	}
}

func TestLinkPairingConsistency(t *testing.T) {
	// The o and S-o offset ports must pair up: wiring uses Link (one
	// direction at a time), and every port must end up connected, which New
	// verifies implicitly by SetDownstreamCredits panicking on double set...
	// here simply assert construction succeeded with all ports wired by
	// routing a packet over every port via the registry-built network.
	h := build(t, h3x4)
	if len(h.Channels()) == 0 {
		t.Fatal("no channels built")
	}
	// channels: per router: 2 terminals x2 + (2+3) links (one direction
	// each, both directions exist across the set) => total = 12*(2*2+5) =
	// 12*9 = 108
	if len(h.Channels()) != 108 {
		t.Fatalf("channels = %d", len(h.Channels()))
	}
}

// zeroSensor reports no congestion anywhere: the zero-load network.
type zeroSensor struct{}

func (zeroSensor) Congestion(sim.Tick, int, int) float64 { return 0 }

// buildAlg builds the 3x4 HyperX of h3x4 under the given routing algorithm and
// returns one routing instance per router, each seeing zero congestion.
func buildAlg(t *testing.T, alg string) (*HyperX, []*hxAlg) {
	t.Helper()
	h := build(t, strings.Replace(h3x4, `"dimension_order"`, `"`+alg+`"`, 1))
	all := make([]int, h.vcs)
	for i := range all {
		all[i] = i
	}
	as := make([]*hxAlg, h.NumRouters())
	for r := range as {
		as[r] = &hxAlg{h: h, router: r, sensor: zeroSensor{}, rng: rand.New(rand.NewPCG(1, uint64(r))),
			phase0: []int{0}, phase1: []int{1}, all: all}
	}
	return h, as
}

// walk routes a packet from router src to terminal dst hop by hop through the
// built wiring, as the routers would, and returns the packet and the VC
// offered at each router-to-router hop.
func walk(t *testing.T, h *HyperX, as []*hxAlg, src, dst int) (*types.Packet, []int) {
	t.Helper()
	pkt := types.NewMessage(0, 0, 0, dst, 1, 1).Packet(0)
	var vcs []int
	for cur := src; ; {
		resp := as[cur].Route(0, pkt, 0, 0)
		if resp.Port < h.conc {
			if cur != dst/h.conc || resp.Port != dst%h.conc {
				t.Fatalf("%d -> %d: ejected at router %d port %d", src, dst, cur, resp.Port)
			}
			return pkt, vcs
		}
		if len(resp.VCs) != 1 && h.alg != algMinimal {
			t.Fatalf("%d -> %d: router %d offers VCs %v, want one phase", src, dst, cur, resp.VCs)
		}
		vcs = append(vcs, resp.VCs[0])
		if len(vcs) > h.NumRouters() {
			t.Fatalf("%d -> %d: no arrival after %v", src, dst, vcs)
		}
		sink, _ := h.Router(cur).OutputChannel(resp.Port).Sink()
		next, ok := sink.(router.Router)
		if !ok {
			t.Fatalf("%d -> %d: router %d port %d leads to a terminal", src, dst, cur, resp.Port)
		}
		cur = next.ID()
		pkt.HopCount++
	}
}

// TestRoutingInvariants walks every (router, destination terminal) pair under
// each algorithm: dimension order takes one hop per differing coordinate
// (every dimension is all-to-all), Valiant deroutes every packet that leaves
// its router through phase 0 and then phase 1 and arrives within twice the
// diameter, UGAL at zero load always routes minimally, and the VC phase never
// falls along a path (the two phases are what keep non-minimal routing
// deadlock-free).
func TestRoutingInvariants(t *testing.T) {
	for _, alg := range []string{"dimension_order", "valiant", "ugal"} {
		t.Run(alg, func(t *testing.T) {
			h, as := buildAlg(t, alg)
			diameter := len(h.widths)
			for src := 0; src < h.NumRouters(); src++ {
				for dst := 0; dst < h.NumTerminals(); dst++ {
					pkt, vcs := walk(t, h, as, src, dst)
					minimal := h.minimalHops(src, dst/h.conc)
					leaves := minimal > 0
					if want := alg == "valiant" && leaves; pkt.NonMinimal != want {
						t.Errorf("%s %d -> %d: non-minimal = %v, want %v", alg, src, dst, pkt.NonMinimal, want)
					}
					if pkt.NonMinimal {
						// Via an intermediate router distinct from both ends,
						// which may lie on a minimal path.
						if lo := max(minimal, 2); len(vcs) < lo || len(vcs) > 2*diameter {
							t.Errorf("%s %d -> %d: %d router hops, want [%d, %d]", alg, src, dst, len(vcs), lo, 2*diameter)
						}
						if vcs[0] != 0 || vcs[len(vcs)-1] != 1 {
							t.Errorf("%s %d -> %d: VCs %v do not run from phase 0 to phase 1", alg, src, dst, vcs)
						}
					} else if len(vcs) != minimal {
						t.Errorf("%s %d -> %d: %d router hops, want the %d differing coordinates", alg, src, dst, len(vcs), minimal)
					}
					for i := 1; i < len(vcs); i++ {
						if vcs[i] < vcs[i-1] {
							t.Errorf("%s %d -> %d: VC phase falls along %v", alg, src, dst, vcs)
						}
					}
				}
			}
		})
	}
}

// TestRouteDoesNotAllocate holds Route to the zero-allocation flit path.
func TestRouteDoesNotAllocate(t *testing.T) {
	for _, alg := range []string{"dimension_order", "valiant", "ugal"} {
		h, as := buildAlg(t, alg)
		pool := types.NewPool()
		allocs := testing.AllocsPerRun(10, func() {
			for r := 0; r < h.NumRouters(); r++ {
				for dst := 0; dst < h.NumTerminals(); dst++ {
					m := pool.NewMessage(0, 0, 0, dst, 1, 1)
					as[r].Route(0, m.Packet(0), 0, 0)
					pool.Release(m)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per sweep of Route over every (router, destination)", alg, allocs)
		}
	}
}
