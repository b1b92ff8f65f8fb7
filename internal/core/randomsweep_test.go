package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/workload/apps"
)

// TestRandomizedConfigSweep generates a deterministic batch of randomized
// configurations — topology, router architecture, buffer depths, VC counts,
// traffic, load — and runs each with the invariant-verification subsystem
// enabled. Every run must complete the four-phase protocol (drain), deliver
// sampled traffic, and satisfy the flit-conservation ledger. In-order
// delivery is enforced inside the run: the per-terminal OrderChecker panics
// on any out-of-order flit, and quiescence panics on any leak. The PRNG is
// fixed-seeded so failures reproduce exactly.
func TestRandomizedConfigSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xC0FFEE, 42))
	pick := func(vals ...int) int { return vals[rng.IntN(len(vals))] }
	rates := []float64{0.05, 0.1, 0.15, 0.2}

	type gen struct {
		topo string
		net  func() string
	}
	iq := func(vcs, depth int) string {
		return fmt.Sprintf(`"router": {
		  "architecture": "input_queued",
		  "num_vcs": %d,
		  "input_buffer_depth": %d,
		  "crossbar_latency": %d
		}`, vcs, depth, pick(1, 2))
	}
	gens := []gen{
		{"torus", func() string {
			return fmt.Sprintf(`{
			  "topology": "torus",
			  "dimensions": [%d, %d],
			  "concentration": %d,
			  "channel": {"latency": %d, "period": 2},
			  "injection": {"latency": 2},
			  %s
			}`, pick(3, 4, 5), pick(3, 4), pick(1, 2), pick(2, 4), iq(pick(2, 4), pick(4, 8, 16)))
		}},
		{"hyperx", func() string {
			arch := fmt.Sprintf(`"router": {
			  "architecture": "input_output_queued",
			  "num_vcs": %d,
			  "input_buffer_depth": %d,
			  "output_queue_depth": 16,
			  "crossbar_latency": 2
			}`, pick(2, 3), pick(4, 8))
			if rng.IntN(2) == 0 {
				arch = iq(pick(2, 3), pick(4, 8))
			}
			return fmt.Sprintf(`{
			  "topology": "hyperx",
			  "widths": [%d, %d],
			  "concentration": %d,
			  "channel": {"latency": %d, "period": 2},
			  "injection": {"latency": 2},
			  %s,
			  "routing": {"algorithm": "dimension_order"}
			}`, pick(2, 3, 4), pick(2, 3), pick(1, 2), pick(2, 4), arch)
		}},
		{"folded_clos", func() string {
			arch := iq(pick(2, 3), pick(4, 8))
			if rng.IntN(2) == 0 {
				arch = `"router": {
				  "architecture": "output_queued",
				  "num_vcs": 2,
				  "input_buffer_depth": 8,
				  "queue_latency": 2,
				  "output_queue_depth": 0
				}`
			}
			return fmt.Sprintf(`{
			  "topology": "folded_clos",
			  "half_radix": 2,
			  "levels": %d,
			  "channel": {"latency": %d, "period": 2},
			  "injection": {"latency": 2},
			  %s,
			  "routing": {"algorithm": "oblivious_uprouting"}
			}`, pick(2, 3), pick(2, 4), arch)
		}},
		{"dragonfly", func() string {
			return fmt.Sprintf(`{
			  "topology": "dragonfly",
			  "concentration": %d,
			  "group_size": 2,
			  "global_links": 1,
			  "channel": {"latency": %d, "period": 2},
			  "injection": {"latency": 2},
			  %s,
			  "routing": {"algorithm": "%s"}
			}`, pick(1, 2), pick(2, 4), iq(3, pick(8, 16)), []string{"minimal", "valiant"}[rng.IntN(2)])
		}},
		{"parking_lot", func() string {
			return fmt.Sprintf(`{
			  "topology": "parking_lot",
			  "routers": %d,
			  "channel": {"latency": %d, "period": 2},
			  "injection": {"latency": 2},
			  %s
			}`, pick(3, 5, 8), pick(2, 4), iq(pick(1, 2), pick(4, 8)))
		}},
	}

	const runs = 12
	for i := 0; i < runs; i++ {
		g := gens[rng.IntN(len(gens))]
		net := g.net()
		doc := fmt.Sprintf(`{
		  "simulation": {"seed": %d},
		  "network": %s,
		  "workload": {
		    "applications": [{
		      "type": "blast",
		      "injection_rate": %g,
		      "message_size": %d,
		      "max_packet_size": 2,
		      "warmup_duration": 300,
		      "sample_duration": 1000,
		      "traffic": {"type": "uniform_random"}
		    }]
		  }
		}`, rng.Uint64N(1<<20)+1, net, rates[rng.IntN(len(rates))], pick(1, 2, 4))
		t.Run(fmt.Sprintf("run%02d_%s", i, g.topo), func(t *testing.T) {
			sm := Build(config.MustParse(doc))
			res, err := sm.Run()
			if err != nil {
				t.Fatalf("config:\n%s\nerror: %v", doc, err)
			}
			if !res.Drained {
				t.Fatalf("run did not drain: %+v", res)
			}
			blast := sm.Workload.App(0).(*apps.Blast)
			if blast.Stats().Count() == 0 {
				t.Fatalf("nothing delivered in sample window:\n%s", doc)
			}
			if n := sm.flitCounts(); n.sent == 0 || n.sent != n.received {
				t.Fatalf("flit conservation: injected %d, retired %d", n.sent, n.received)
			}
		})
	}
}

// TestRandomizedCheckpointRestore is the randomized twin of the checkpoint
// equivalence harness: each short randomized configuration runs once
// uninterrupted and once with a snapshot at every 100-tick boundary, then a
// continuation is restored from every captured snapshot and must reproduce the
// uninterrupted run's result, conservation totals, and sampled latency
// histogram exactly. The PRNG is fixed-seeded so failures reproduce.
func TestRandomizedCheckpointRestore(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x5EEDC0DE, 7))
	pick := func(vals ...int) int { return vals[rng.IntN(len(vals))] }
	nets := []func() string{
		func() string {
			return fmt.Sprintf(`{
			  "topology": "torus",
			  "dimensions": [%d, %d],
			  "concentration": 1,
			  "channel": {"latency": %d, "period": 2},
			  "injection": {"latency": 2},
			  "router": {
			    "architecture": "input_queued",
			    "num_vcs": %d,
			    "input_buffer_depth": %d,
			    "crossbar_latency": 2
			  }
			}`, pick(3, 4), pick(3, 4), pick(2, 4), pick(2, 4), pick(4, 8))
		},
		func() string {
			return fmt.Sprintf(`{
			  "topology": "parking_lot",
			  "routers": %d,
			  "channel": {"latency": %d, "period": 2},
			  "injection": {"latency": 2},
			  "router": {
			    "architecture": "input_queued",
			    "num_vcs": 2,
			    "input_buffer_depth": %d,
			    "crossbar_latency": 1
			  }
			}`, pick(3, 5), pick(2, 4), pick(4, 8))
		},
	}
	type signature struct {
		res      Result
		injected uint64
		retired  uint64
		hist     [][2]uint64
	}
	sig := func(sm *Simulation, res Result) signature {
		blast := sm.Workload.App(0).(*apps.Blast)
		n := sm.flitCounts()
		return signature{res, n.sent, n.received, histogram(blast.Stats().Samples())}
	}
	const runs = 4
	for i := 0; i < runs; i++ {
		doc := fmt.Sprintf(`{
		  "simulation": {"seed": %d},
		  "network": %s,
		  "workload": {
		    "applications": [{
		      "type": "blast",
		      "injection_rate": %g,
		      "message_size": %d,
		      "max_packet_size": 2,
		      "warmup_duration": 150,
		      "sample_duration": 400,
		      "traffic": {"type": "uniform_random"}
		    }]
		  }
		}`, rng.Uint64N(1<<20)+1, nets[i%len(nets)](),
			[]float64{0.05, 0.1, 0.15}[rng.IntN(3)], pick(1, 2, 4))
		t.Run(fmt.Sprintf("run%02d", i), func(t *testing.T) {
			base := Build(config.MustParse(doc))
			bres, err := base.Run()
			if err != nil {
				t.Fatalf("config:\n%s\nerror: %v", doc, err)
			}
			want := sig(base, bres)

			type snap struct {
				tick sim.Tick
				data []byte
			}
			var snaps []snap
			ck := Build(config.MustParse(doc))
			cres, err := ck.RunCheckpointed(100, func(tick sim.Tick, data []byte) error {
				snaps = append(snaps, snap{tick, append([]byte(nil), data...)})
				return nil
			})
			if err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			if got := sig(ck, cres); !reflect.DeepEqual(got, want) {
				t.Fatalf("checkpointed run diverged:\ngot:  %+v\nwant: %+v", got, want)
			}
			if len(snaps) == 0 {
				t.Fatal("no checkpoints captured")
			}
			for _, s := range snaps {
				rm, tick, err := Restore(s.data, 0)
				if err != nil {
					t.Fatalf("restore at tick %d: %v", s.tick, err)
				}
				if tick != s.tick {
					t.Fatalf("restore reported tick %d, snapshot taken at %d", tick, s.tick)
				}
				rres, err := rm.Run()
				if err != nil {
					t.Fatalf("continuation from tick %d: %v", s.tick, err)
				}
				if got := sig(rm, rres); !reflect.DeepEqual(got, want) {
					t.Fatalf("continuation from tick %d diverged:\ngot:  %+v\nwant: %+v",
						s.tick, got, want)
				}
			}
		})
	}
}
