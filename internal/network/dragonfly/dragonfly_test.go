package dragonfly

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"supersim/internal/config"
	"supersim/internal/router"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func build(t *testing.T) *Dragonfly {
	t.Helper()
	return buildAlg(t, "minimal", 2)
}

// buildAlg builds the a=2, h=2, p=2 dragonfly (5 groups, 10 routers, 20
// terminals) with the given routing algorithm and VC count.
func buildAlg(t *testing.T, alg string, vcs int) *Dragonfly {
	t.Helper()
	return New(sim.NewSimulator(1), config.MustParse(fmt.Sprintf(`{
	  "topology": "dragonfly",
	  "concentration": 2,
	  "group_size": 2,
	  "global_links": 2,
	  "channel": {"latency": 2, "period": 1},
	  "injection": {"latency": 1},
	  "router": {"architecture": "input_queued", "num_vcs": %d, "input_buffer_depth": 4, "crossbar_latency": 1},
	  "routing": {"algorithm": %q}
	}`, vcs, alg)))
}

func TestBalancedShape(t *testing.T) {
	d := build(t)
	// a=2, h=2 => groups = 5, routers = 10, terminals = 20
	if d.groups != 5 {
		t.Fatalf("groups = %d", d.groups)
	}
	if d.NumRouters() != 10 || d.NumTerminals() != 20 {
		t.Fatalf("routers=%d terminals=%d", d.NumRouters(), d.NumTerminals())
	}
	// radix = p + (a-1) + h = 2 + 1 + 2 = 5
	if d.Router(0).Radix() != 5 {
		t.Fatalf("radix = %d", d.Router(0).Radix())
	}
}

func TestPortLayout(t *testing.T) {
	d := build(t)
	if d.localPort(1) != 2 {
		t.Fatalf("local port = %d", d.localPort(1))
	}
	if d.globalPort(0) != 3 || d.globalPort(1) != 4 {
		t.Fatal("global ports wrong")
	}
}

func TestGlobalOwnerBijective(t *testing.T) {
	d := build(t)
	// Every (group, target group) pair maps to a unique (router, port) slot
	// within the group, and the reverse mapping from the target group points
	// back consistently.
	for g := 0; g < d.groups; g++ {
		seen := map[[2]int]int{}
		for tg := 0; tg < d.groups; tg++ {
			if tg == g {
				continue
			}
			r, p := d.globalOwner(g, tg)
			if r < 0 || r >= d.a || p < 0 || p >= d.h {
				t.Fatalf("owner out of range: g=%d tg=%d -> (%d,%d)", g, tg, r, p)
			}
			if prev, dup := seen[[2]int{r, p}]; dup {
				t.Fatalf("slot (%d,%d) of group %d serves both %d and %d", r, p, g, prev, tg)
			}
			seen[[2]int{r, p}] = tg
		}
		if len(seen) != d.groups-1 {
			t.Fatalf("group %d uses %d slots, want %d", g, len(seen), d.groups-1)
		}
	}
}

// zeroSensor reports no congestion anywhere: the zero-load network.
type zeroSensor struct{}

func (zeroSensor) Congestion(sim.Tick, int, int) float64 { return 0 }

// algs returns one routing instance per router, each seeing zero congestion.
func algs(d *Dragonfly) []*dfAlg {
	out := make([]*dfAlg, d.NumRouters())
	for r := range out {
		out[r] = &dfAlg{d: d, router: r, sensor: zeroSensor{}, rng: rand.New(rand.NewPCG(1, uint64(r)))}
	}
	return out
}

// newPacket is a head packet bound for terminal dst that has not yet left
// its source router.
func newPacket(dst int) *types.Packet {
	return types.NewMessage(0, 0, 0, dst, 1, 1).Packet(0)
}

// walk routes a packet from router src to terminal dst hop by hop through the
// built wiring, as the routers would, and returns the router-to-router hops
// and the VC class of each.
func walk(t *testing.T, d *Dragonfly, as []*dfAlg, src, dst int) (*types.Packet, []int) {
	t.Helper()
	pkt := newPacket(dst)
	var classes []int
	for cur := src; ; {
		resp := as[cur].Route(0, pkt, 0, 0)
		if resp.Port < d.p {
			if cur != dst/d.p || resp.Port != dst%d.p {
				t.Fatalf("%d -> %d: ejected at router %d port %d", src, dst, cur, resp.Port)
			}
			if len(resp.VCs) != d.vcs {
				t.Fatalf("%d -> %d: ejection offers VCs %v, want all %d", src, dst, resp.VCs, d.vcs)
			}
			return pkt, classes
		}
		if len(resp.VCs) != 1 {
			t.Fatalf("%d -> %d: router %d offers VCs %v, want one class", src, dst, cur, resp.VCs)
		}
		classes = append(classes, resp.VCs[0])
		if len(classes) > 8 {
			t.Fatalf("%d -> %d: no arrival after %v", src, dst, classes)
		}
		sink, _ := d.Router(cur).OutputChannel(resp.Port).Sink()
		next, ok := sink.(router.Router)
		if !ok {
			t.Fatalf("%d -> %d: router %d port %d leads to a terminal", src, dst, cur, resp.Port)
		}
		cur = next.ID()
		pkt.HopCount++
	}
}

// TestRoutingInvariants walks every (router, destination terminal) pair
// under each algorithm: minimal arrives in at most 3 router hops and Valiant
// in at most 5, the VC class never decreases along a path (the ascending
// classes are what make the routing deadlock-free), and UGAL at zero load
// always chooses the minimal path.
func TestRoutingInvariants(t *testing.T) {
	for _, tc := range []struct {
		alg     string
		maxHops int
	}{
		{"minimal", 3},
		{"valiant", 5},
		{"ugal", 3},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			d := buildAlg(t, tc.alg, 3)
			as := algs(d)
			for src := 0; src < d.NumRouters(); src++ {
				for dst := 0; dst < d.NumTerminals(); dst++ {
					pkt, classes := walk(t, d, as, src, dst)
					if len(classes) > tc.maxHops {
						t.Errorf("%s %d -> %d: %d router hops, want <= %d", tc.alg, src, dst, len(classes), tc.maxHops)
					}
					for i := 1; i < len(classes); i++ {
						if classes[i] < classes[i-1] {
							t.Errorf("%s %d -> %d: VC class falls along %v", tc.alg, src, dst, classes)
						}
					}
					// Valiant deroutes every packet that leaves its group;
					// UGAL at zero load never does.
					leaves := src/d.a != dst/d.p/d.a
					if want := tc.alg == "valiant" && leaves; pkt.NonMinimal != want {
						t.Errorf("%s %d -> %d: non-minimal = %v, want %v", tc.alg, src, dst, pkt.NonMinimal, want)
					}
				}
			}
		})
	}
}

// TestRouteDoesNotAllocate holds Route to the zero-allocation flit path:
// every VC set it returns is built once, in New.
func TestRouteDoesNotAllocate(t *testing.T) {
	for _, alg := range []string{"minimal", "valiant", "ugal"} {
		d := buildAlg(t, alg, 3)
		as := algs(d)
		pool := types.NewPool()
		allocs := testing.AllocsPerRun(10, func() {
			for r := 0; r < d.NumRouters(); r++ {
				for dst := 0; dst < d.NumTerminals(); dst++ {
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
