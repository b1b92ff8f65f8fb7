package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"supersim/internal/config"
	"supersim/internal/stats"
	"supersim/internal/workload/apps"
)

// The golden-trace conformance harness runs one small seeded simulation per
// topology — with the invariant-verification subsystem enabled — and compares
// a behavioral fingerprint (event count, end tick, flit conservation totals,
// and the full latency histogram) against a committed golden file. Any change
// to event ordering, routing, arbitration, credit flow, or timing shows up as
// a fingerprint diff; TESTING.md describes when and how to regenerate.
//
// Regenerate after an intentional behavioral change with:
//
//	SUPERSIM_UPDATE_GOLDEN=1 go test ./internal/core -run TestGoldenTraces

const updateEnv = "SUPERSIM_UPDATE_GOLDEN"

// latencyBin is the histogram bin width in ticks. Coarse enough to keep the
// goldens readable, fine enough that any systematic latency shift moves
// counts between bins.
const latencyBin = 32

// fingerprint is the committed behavioral signature of one golden run.
type fingerprint struct {
	Topology      string      `json:"topology"`
	Traffic       string      `json:"traffic"`
	Events        uint64      `json:"events"`
	EndTick       uint64      `json:"end_tick"`
	Samples       int         `json:"samples"`
	FlitsInjected uint64      `json:"flits_injected"`
	FlitsRetired  uint64      `json:"flits_retired"`
	TotalHops     uint64      `json:"total_hops"`
	LatencyHist   [][2]uint64 `json:"latency_histogram"` // [bin*latencyBin, count], sorted
}

// histogram bins the sampled message latencies.
func histogram(samples []stats.Sample) [][2]uint64 {
	counts := map[uint64]uint64{}
	var maxBin uint64
	for _, s := range samples {
		bin := uint64(s.Latency()) / latencyBin
		counts[bin]++
		if bin > maxBin {
			maxBin = bin
		}
	}
	var out [][2]uint64
	for bin := uint64(0); bin <= maxBin; bin++ {
		if c := counts[bin]; c > 0 {
			out = append(out, [2]uint64{bin * latencyBin, c})
		}
	}
	return out
}

type goldenCase struct {
	name    string
	topo    string
	traffic string
	doc     string
}

// goldenDoc assembles a full settings document. Every topology gets a
// representative traffic pattern: tornado on the torus (the pattern it is
// most sensitive to), bit-complement on HyperX, hotspot on the parking lot
// chain (the pattern the topology exists for), and uniform random on the
// hierarchical topologies.
func goldenDoc(network, traffic string, rate float64) string {
	return fmt.Sprintf(`{
	  "simulation": {"seed": 12345},
	  "network": %s,
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": %g,
	      "message_size": 4,
	      "max_packet_size": 2,
	      "warmup_duration": 400,
	      "sample_duration": 1500,
	      "traffic": %s
	    }]
	  }
	}`, network, rate, traffic)
}

func goldenCases() []goldenCase {
	router := func(arch string, vcs int) string {
		return fmt.Sprintf(`"router": {
	  %s
	  "num_vcs": %d,
	  "input_buffer_depth": 8,
	  "crossbar_latency": 2
	}`, arch, vcs)
	}
	iqRouter := func(vcs int) string { return router(`"architecture": "input_queued",`, vcs) }
	// torus is the first case's network under a given router architecture:
	// the other two architectures run the same tornado workload, so their
	// pipelines, codecs and shard seams are pinned like the IQ one's.
	torus := func(name, arch string) goldenCase {
		return goldenCase{
			name: name, topo: "torus",
			traffic: `{"type": "tornado", "widths": [4, 4], "concentration": 1}`,
			doc: goldenDoc(`{
			  "topology": "torus",
			  "dimensions": [4, 4],
			  "concentration": 1,
			  "channel": {"latency": 4, "period": 2},
			  "injection": {"latency": 2},
			  `+router(arch, 4)+`
			}`, `{"type": "tornado", "widths": [4, 4], "concentration": 1}`, 0.2),
		}
	}
	cases := []goldenCase{
		torus("torus_tornado", `"architecture": "input_queued",`),
		{
			name: "folded_clos_uniform", topo: "folded_clos",
			traffic: `{"type": "uniform_random"}`,
			doc: goldenDoc(`{
			  "topology": "folded_clos",
			  "half_radix": 2,
			  "levels": 3,
			  "channel": {"latency": 4, "period": 2},
			  "injection": {"latency": 2},
			  `+iqRouter(2)+`,
			  "routing": {"algorithm": "oblivious_uprouting"}
			}`, `{"type": "uniform_random"}`, 0.15),
		},
		{
			name: "hyperx_bit_complement", topo: "hyperx",
			traffic: `{"type": "bit_complement"}`,
			doc: goldenDoc(`{
			  "topology": "hyperx",
			  "widths": [4, 4],
			  "concentration": 1,
			  "channel": {"latency": 4, "period": 2},
			  "injection": {"latency": 2},
			  `+iqRouter(2)+`,
			  "routing": {"algorithm": "dimension_order"}
			}`, `{"type": "bit_complement"}`, 0.2),
		},
		{
			name: "dragonfly_uniform", topo: "dragonfly",
			traffic: `{"type": "uniform_random"}`,
			doc: goldenDoc(`{
			  "topology": "dragonfly",
			  "concentration": 2,
			  "group_size": 2,
			  "global_links": 1,
			  "channel": {"latency": 4, "period": 2},
			  "injection": {"latency": 2},
			  `+iqRouter(3)+`,
			  "routing": {"algorithm": "ugal"}
			}`, `{"type": "uniform_random"}`, 0.1),
		},
		{
			name: "parking_lot_hotspot", topo: "parking_lot",
			traffic: `{"type": "hotspot", "destination": 0, "fraction": 0.5}`,
			doc: goldenDoc(`{
			  "topology": "parking_lot",
			  "routers": 6,
			  "channel": {"latency": 4, "period": 2},
			  "injection": {"latency": 2},
			  `+iqRouter(2)+`
			}`, `{"type": "hotspot", "destination": 0, "fraction": 0.5}`, 0.1),
		},
		torus("torus_tornado_oq", `"architecture": "output_queued", "queue_latency": 3,`),
		torus("torus_tornado_ioq", `"architecture": "input_output_queued", "output_queue_depth": 8,`),
	}
	return cases
}

// runGolden executes one golden case and returns its fingerprint.
func runGolden(t *testing.T, gc goldenCase) fingerprint {
	t.Helper()
	sm := Build(config.MustParse(gc.doc))
	res, err := sm.Run()
	if err != nil {
		t.Fatal(err)
	}
	return goldenFingerprint(t, gc, sm, res)
}

// goldenFingerprint extracts the behavioral signature from a completed run:
// result counters, the interfaces' flit totals, and the sampled latency
// histogram. The checkpoint harness shares it so restored continuations are
// fingerprinted exactly like uninterrupted runs.
func goldenFingerprint(t *testing.T, gc goldenCase, sm *Simulation, res Result) fingerprint {
	t.Helper()
	blast := sm.Workload.App(0).(*apps.Blast)
	samples := blast.Stats().Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	var hops uint64
	for _, s := range samples {
		hops += uint64(s.Hops)
	}
	n := sm.flitCounts()
	return fingerprint{
		Topology:      gc.topo,
		Traffic:       gc.traffic,
		Events:        res.Events,
		EndTick:       uint64(res.EndTick),
		Samples:       len(samples),
		FlitsInjected: n.sent,
		FlitsRetired:  n.received,
		TotalHops:     hops,
		LatencyHist:   histogram(samples),
	}
}

// loadGolden reads the committed golden fingerprint for one case.
func loadGolden(t *testing.T, gc goldenCase) fingerprint {
	t.Helper()
	path := filepath.Join("testdata", "golden", gc.name+".json")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with %s=1 to create): %v", updateEnv, err)
	}
	var want fingerprint
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden %s: %v", path, err)
	}
	return want
}

func TestGoldenTraces(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			got := runGolden(t, gc)
			if got.FlitsInjected != got.FlitsRetired {
				t.Fatalf("flit conservation: injected %d != retired %d",
					got.FlitsInjected, got.FlitsRetired)
			}
			path := filepath.Join("testdata", "golden", gc.name+".json")
			if os.Getenv(updateEnv) != "" {
				buf, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with %s=1 to create): %v", updateEnv, err)
			}
			var want fingerprint
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatalf("corrupt golden %s: %v", path, err)
			}
			if !reflect.DeepEqual(got, want) {
				gb, _ := json.MarshalIndent(got, "", "  ")
				t.Fatalf("fingerprint drifted from %s\ngot:\n%s\n\nIf this change is intentional, regenerate with %s=1.",
					path, gb, updateEnv)
			}
		})
	}
}
