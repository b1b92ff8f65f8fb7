package torus

import (
	"testing"

	"supersim/internal/config"
	"supersim/internal/router"
	"supersim/internal/sim"
	"supersim/internal/types"
)

func build(t *testing.T, doc string) *Torus {
	t.Helper()
	return New(sim.NewSimulator(1), config.MustParse(doc))
}

const t3x4 = `{
  "topology": "torus",
  "dimensions": [3, 4],
  "concentration": 2,
  "channel": {"latency": 2, "period": 1},
  "injection": {"latency": 1},
  "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 4, "crossbar_latency": 1}
}`

// t2x3x4 has a width-2 ring, whose two directions reach the same neighbor,
// and four VCs, two per dateline class.
const t2x3x4 = `{
  "topology": "torus",
  "dimensions": [2, 3, 4],
  "concentration": 1,
  "channel": {"latency": 2, "period": 1},
  "injection": {"latency": 1},
  "router": {"architecture": "input_queued", "num_vcs": 4, "input_buffer_depth": 4, "crossbar_latency": 1}
}`

func TestShape(t *testing.T) {
	tor := build(t, t3x4)
	if tor.NumRouters() != 12 || tor.NumTerminals() != 24 {
		t.Fatalf("routers=%d terminals=%d", tor.NumRouters(), tor.NumTerminals())
	}
	// radix: 2 terminals + 2 ports per dimension x 2 dims = 6
	if tor.Router(0).Radix() != 6 {
		t.Fatalf("radix = %d", tor.Router(0).Radix())
	}
}

func TestCoordAndNeighbor(t *testing.T) {
	tor := build(t, t3x4)
	// router id = x + 3*y for dims [3,4]
	rid := 2 + 3*1 // (x=2, y=1)
	if tor.coord(rid, 0) != 2 || tor.coord(rid, 1) != 1 {
		t.Fatal("coord extraction wrong")
	}
	// +1 in dim 0 wraps x: (0,1) = 3
	if nb := tor.neighbor(rid, 0, +1); nb != 3 {
		t.Fatalf("neighbor x+ = %d", nb)
	}
	if nb := tor.neighbor(rid, 0, -1); nb != 1+3*1 {
		t.Fatalf("neighbor x- = %d", nb)
	}
	// -1 in dim 1 from y=1: (2,0) = 2
	if nb := tor.neighbor(rid, 1, -1); nb != 2 {
		t.Fatalf("neighbor y- = %d", nb)
	}
	// wrap: (2,0) - 1 in dim 1 -> (2,3)
	if nb := tor.neighbor(2, 1, -1); nb != 2+3*3 {
		t.Fatalf("neighbor wrap = %d", nb)
	}
}

func TestPortLayout(t *testing.T) {
	tor := build(t, t3x4)
	if tor.portPlus(0) != 2 || tor.portMinus(0) != 3 ||
		tor.portPlus(1) != 4 || tor.portMinus(1) != 5 {
		t.Fatal("port layout wrong")
	}
}

// algs returns one routing instance per router with New's dateline classes.
func algs(tor *Torus) []*dorAlg {
	half := tor.vcs / 2
	class0, class1, all := make([]int, half), make([]int, half), make([]int, tor.vcs)
	for i := range all {
		all[i] = i
	}
	copy(class0, all[:half])
	copy(class1, all[half:])
	out := make([]*dorAlg, tor.NumRouters())
	for r := range out {
		out[r] = &dorAlg{t: tor, router: r, class0: class0, class1: class1, all: all}
	}
	return out
}

// hop is one router-to-router step: the dimension it moves in and the
// dateline class (0 or 1) of the VCs it may use.
type hop struct{ dim, class int }

// walk routes a packet from router src to terminal dst hop by hop through the
// built wiring, as the routers would, and returns its router-to-router hops.
func walk(t *testing.T, tor *Torus, as []*dorAlg, src, dst int) []hop {
	t.Helper()
	pkt := &types.Packet{Msg: &types.Message{Dst: dst}, Intermediate: -1}
	var hops []hop
	for cur := src; ; {
		resp := as[cur].Route(0, pkt, 0, 0)
		if resp.Port < tor.conc {
			if cur != dst/tor.conc || resp.Port != dst%tor.conc {
				t.Fatalf("%d -> %d: ejected at router %d port %d", src, dst, cur, resp.Port)
			}
			return hops
		}
		class := resp.VCs[0] * 2 / tor.vcs
		for _, vc := range resp.VCs {
			if vc*2/tor.vcs != class {
				t.Fatalf("%d -> %d: router %d offers VCs %v across both dateline classes", src, dst, cur, resp.VCs)
			}
		}
		hops = append(hops, hop{(resp.Port - tor.conc) / 2, class})
		if len(hops) > tor.NumRouters() {
			t.Fatalf("%d -> %d: no arrival after %v", src, dst, hops)
		}
		sink, _ := tor.Router(cur).OutputChannel(resp.Port).Sink()
		next, ok := sink.(router.Router)
		if !ok {
			t.Fatalf("%d -> %d: router %d port %d leads to a terminal", src, dst, cur, resp.Port)
		}
		cur = next.ID()
		pkt.HopCount++
	}
}

// TestRoutingInvariants walks every (router, destination terminal) pair:
// dimension-order routing takes exactly the sum of the shortest ring
// distances, visits dimensions in ascending order, and within a dimension
// never moves from the dateline class back to the lower one (the ascending
// classes are what make each ring deadlock-free).
func TestRoutingInvariants(t *testing.T) {
	for _, doc := range []string{t3x4, t2x3x4} {
		tor := build(t, doc)
		as := algs(tor)
		for src := 0; src < tor.NumRouters(); src++ {
			for dst := 0; dst < tor.NumTerminals(); dst++ {
				hops := walk(t, tor, as, src, dst)
				want := 0
				for d, w := range tor.widths {
					dist := (tor.coord(dst/tor.conc, d) - tor.coord(src, d) + w) % w
					want += min(dist, w-dist)
				}
				if len(hops) != want {
					t.Errorf("%v %d -> %d: %d router hops, want %d", tor.widths, src, dst, len(hops), want)
				}
				for i := 1; i < len(hops); i++ {
					prev, cur := hops[i-1], hops[i]
					if cur.dim < prev.dim || (cur.dim == prev.dim && cur.class < prev.class) {
						t.Errorf("%v %d -> %d: hops %v leave dimension order or fall below the dateline class", tor.widths, src, dst, hops)
					}
				}
			}
		}
	}
}

// TestRouteDoesNotAllocate holds Route to the zero-allocation flit path.
func TestRouteDoesNotAllocate(t *testing.T) {
	tor := build(t, t2x3x4)
	as := algs(tor)
	pkt := &types.Packet{Msg: &types.Message{}, Intermediate: -1}
	allocs := testing.AllocsPerRun(10, func() {
		for r := 0; r < tor.NumRouters(); r++ {
			for dst := 0; dst < tor.NumTerminals(); dst++ {
				*pkt = types.Packet{Msg: pkt.Msg, Intermediate: -1}
				pkt.Msg.Dst = dst
				as[r].Route(0, pkt, 0, 0)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per sweep of Route over every (router, destination)", allocs)
	}
}
