package foldedclos

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"supersim/internal/config"
	"supersim/internal/router"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func build(t *testing.T, k, levels int) *FoldedClos {
	t.Helper()
	return buildRouted(t, k, levels, "adaptive_uprouting")
}

func buildRouted(t *testing.T, k, levels int, alg string) *FoldedClos {
	t.Helper()
	s := sim.NewSimulator(1)
	cfg := config.MustParse(`{
	  "topology": "folded_clos",
	  "half_radix": ` + itoa(k) + `,
	  "levels": ` + itoa(levels) + `,
	  "channel": {"latency": 2, "period": 1},
	  "injection": {"latency": 1},
	  "router": {"architecture": "input_queued", "num_vcs": 1, "input_buffer_depth": 4, "crossbar_latency": 1},
	  "routing": {"algorithm": "` + alg + `"}
	}`)
	return New(s, cfg)
}

func itoa(v int) string {
	return string(rune('0' + v))
}

func TestShapeCounts(t *testing.T) {
	f := build(t, 4, 3)
	// 4^3 = 64 terminals; 3 levels x 4^2 = 48 routers.
	if f.NumTerminals() != 64 {
		t.Fatalf("terminals = %d", f.NumTerminals())
	}
	if f.NumRouters() != 48 {
		t.Fatalf("routers = %d", f.NumRouters())
	}
	// Leaf and mid routers radix 8; roots radix 4.
	if f.Router(0).Radix() != 8 {
		t.Fatalf("leaf radix %d", f.Router(0).Radix())
	}
	if f.Router(2*16).Radix() != 4 {
		t.Fatalf("root radix %d", f.Router(32).Radix())
	}
}

func TestDigitHelpers(t *testing.T) {
	f := build(t, 4, 3)
	// w = 0b 23 in base 4: digits (2, 3) -> w = 2*4+3 = 11
	if f.digit(11, 0) != 3 || f.digit(11, 1) != 2 {
		t.Fatal("digit extraction wrong")
	}
	if f.replaceDigit(11, 0, 1) != 9 { // (2,1)
		t.Fatalf("replaceDigit low = %d", f.replaceDigit(11, 0, 1))
	}
	if f.replaceDigit(11, 1, 0) != 3 { // (0,3)
		t.Fatalf("replaceDigit high = %d", f.replaceDigit(11, 1, 0))
	}
}

// covers is the definition newAlg's terminal range encodes: the subtree of
// router (lvl, w) contains terminal t when every terminal digit above
// position lvl matches the router digit one place below it.
func covers(f *FoldedClos, lvl, w, t int) bool {
	tr := t / f.k // terminal digits t[n-1..1] as an index, aligned with w
	for j := lvl; j < f.levels-1; j++ {
		if f.digit(tr, j) != f.digit(w, j) {
			return false
		}
	}
	return true
}

func TestCoversSubtrees(t *testing.T) {
	f := build(t, 4, 3)
	// Every router's precomputed range is its subtree by the digit definition.
	for rid := 0; rid < f.NumRouters(); rid++ {
		a := f.newAlg(rid, nil, nil, nil, nil)
		for term := 0; term < 64; term++ {
			if got, want := uint(term-a.lo) < uint(a.span), covers(f, f.level(rid), f.index(rid), term); got != want {
				t.Fatalf("router %d: range [%d,+%d) holds %d = %v, want %v", rid, a.lo, a.span, term, got, want)
			}
		}
	}
	// Leaf router w covers exactly terminals [w*k, w*k+k).
	for w := 0; w < f.perLvl; w += 5 {
		for term := 0; term < 64; term++ {
			want := term/4 == w
			if got := covers(f, 0, w, term); got != want {
				t.Fatalf("covers(0, %d, %d) = %v, want %v", w, term, got, want)
			}
		}
	}
	// Level-1 router (x1, x0) covers terminals with top digit == x1.
	for w := 0; w < f.perLvl; w++ {
		x1 := f.digit(w, 1)
		for term := 0; term < 64; term++ {
			want := term/16 == x1
			if got := covers(f, 1, w, term); got != want {
				t.Fatalf("covers(1, %d, %d) = %v, want %v", w, term, got, want)
			}
		}
	}
	// Roots cover everything.
	for w := 0; w < f.perLvl; w++ {
		for term := 0; term < 64; term += 7 {
			if !covers(f, 2, w, term) {
				t.Fatal("root must cover all terminals")
			}
		}
	}
}

func TestLevelIndexDecomposition(t *testing.T) {
	f := build(t, 4, 3)
	for rid := 0; rid < f.NumRouters(); rid++ {
		lvl, idx := f.level(rid), f.index(rid)
		if lvl*f.perLvl+idx != rid {
			t.Fatalf("decomposition of %d wrong", rid)
		}
		if lvl < 0 || lvl > 2 || idx < 0 || idx >= 16 {
			t.Fatalf("rid %d -> (%d, %d)", rid, lvl, idx)
		}
	}
}

// zeroSensor reports no congestion anywhere: the zero-load network.
type zeroSensor struct{}

func (zeroSensor) Congestion(sim.Tick, int, int) float64 { return 0 }

// buildAlg builds a k-ary tree of the given levels under the given routing
// algorithm and returns one routing instance per router, each seeing zero
// congestion.
func buildAlg(t *testing.T, k, levels int, alg string) (*FoldedClos, []*upAlg) {
	t.Helper()
	f := buildRouted(t, k, levels, alg)
	all := []int{0}
	up := make([]routing.Candidate, f.k)
	for u := range up {
		up[u] = routing.Candidate{Port: f.k + u}
	}
	as := make([]*upAlg, f.NumRouters())
	for r := range as {
		as[r] = f.newAlg(r, zeroSensor{}, rand.New(rand.NewPCG(1, uint64(r))), all, up)
	}
	return f, as
}

// TestRoutingInvariants walks every (router, destination terminal) pair
// through the built wiring under both algorithms: the packet reaches its
// terminal, never turns up again once it has turned down (the up*/down*
// order that keeps the tree deadlock-free), and takes at most 2*(levels-1)
// router-to-router hops, the up-and-back-down path through a root.
func TestRoutingInvariants(t *testing.T) {
	for _, alg := range []string{"adaptive_uprouting", "oblivious_uprouting"} {
		for _, shape := range [][2]int{{4, 3}, {2, 4}, {3, 2}} {
			k, levels := shape[0], shape[1]
			t.Run(fmt.Sprintf("%s/k%d_levels%d", alg, k, levels), func(t *testing.T) {
				routingInvariants(t, alg, k, levels)
			})
		}
	}
}

func routingInvariants(t *testing.T, alg string, k, levels int) {
	f, as := buildAlg(t, k, levels, alg)
	for src := 0; src < f.NumRouters(); src++ {
		for dst := 0; dst < f.NumTerminals(); dst++ {
			pkt := types.NewMessage(0, 0, 0, dst, 1, 1).Packet(0)
			hops, down := 0, false
			for cur := src; ; {
				resp := as[cur].Route(0, pkt, 0, 0)
				if resp.Port < f.k && f.level(cur) == 0 {
					if cur != dst/f.k || resp.Port != dst%f.k {
						t.Fatalf("%d -> %d: ejected at router %d port %d", src, dst, cur, resp.Port)
					}
					break
				}
				if resp.Port >= f.k && down {
					t.Fatalf("%d -> %d: up-move at router %d after a down-move", src, dst, cur)
				}
				down = resp.Port < f.k
				if hops++; hops > 2*(f.levels-1) {
					t.Fatalf("%d -> %d: more than %d router hops", src, dst, 2*(f.levels-1))
				}
				sink, _ := f.Router(cur).OutputChannel(resp.Port).Sink()
				next, ok := sink.(router.Router)
				if !ok {
					t.Fatalf("%d -> %d: router %d port %d leads to a terminal", src, dst, cur, resp.Port)
				}
				cur = next.ID()
			}
		}
	}
}

// TestRouteDoesNotAllocate holds Route to the zero-allocation flit path.
func TestRouteDoesNotAllocate(t *testing.T) {
	for _, alg := range []string{"adaptive_uprouting", "oblivious_uprouting"} {
		f, as := buildAlg(t, 4, 3, alg)
		pool := types.NewPool()
		allocs := testing.AllocsPerRun(10, func() {
			for r := 0; r < f.NumRouters(); r++ {
				for dst := 0; dst < f.NumTerminals(); dst++ {
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
