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

// goldenDoc assembles a full settings document with verification enabled.
// Every topology gets a representative traffic pattern: tornado on the torus
// (the pattern it is most sensitive to), bit-complement on HyperX, hotspot on
// the parking lot chain (the pattern the topology exists for), and uniform
// random on the hierarchical topologies.
func goldenDoc(network, traffic string, rate float64) string {
	return fmt.Sprintf(`{
	  "simulation": {
	    "seed": 12345,
	    "verify": {"enabled": true, "watchdog_epoch": 10000}
	  },
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
	return runGoldenWorkers(t, gc, 1)
}

// runGoldenWorkers executes one golden case with the given worker count and
// returns its fingerprint. workers > 1 runs the sharded parallel engine,
// which must produce a byte-identical fingerprint.
func runGoldenWorkers(t *testing.T, gc goldenCase, workers int) fingerprint {
	t.Helper()
	cfg := config.MustParse(gc.doc)
	if workers > 1 {
		cfg.Set("simulation.workers", uint64(workers))
	}
	sm := Build(cfg)
	if workers > 1 && sm.Shards == nil {
		t.Fatalf("workers=%d did not produce a parallel partition", workers)
	}
	if sm.Verify == nil {
		t.Fatal("golden runs must have verification enabled")
	}
	res, err := sm.Run()
	if err != nil {
		t.Fatal(err)
	}
	return goldenFingerprint(t, gc, sm, res)
}

// goldenFingerprint extracts the behavioral signature from a completed run:
// result counters, verifier conservation totals, and the sampled latency
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
	return fingerprint{
		Topology:      gc.topo,
		Traffic:       gc.traffic,
		Events:        res.Events,
		EndTick:       uint64(res.EndTick),
		Samples:       len(samples),
		FlitsInjected: sm.Verify.Injected(),
		FlitsRetired:  sm.Verify.Retired(),
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

// TestGoldenTracesParallel runs every committed golden topology on the
// sharded parallel engine at workers 2 and 4 and requires the fingerprint to
// be byte-identical to the committed (serial) golden — the parallel/serial
// equivalence oracle. The fingerprint covers event counts, end tick, flit
// conservation totals, and the full sampled latency histogram, so any
// divergence in event ordering, routing decisions, or timing between the
// serial loop and the conservative engine fails here.
func TestGoldenTracesParallel(t *testing.T) {
	if os.Getenv(updateEnv) != "" {
		t.Skip("golden update runs are serial-only")
	}
	for _, workers := range []int{2, 4} {
		for _, gc := range goldenCases() {
			t.Run(fmt.Sprintf("%s_w%d", gc.name, workers), func(t *testing.T) {
				got := runGoldenWorkers(t, gc, workers)
				path := filepath.Join("testdata", "golden", gc.name+".json")
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
					t.Fatalf("parallel run (workers=%d) diverged from serial golden %s\ngot:\n%s",
						workers, path, gb)
				}
			})
		}
	}
}

// TestGoldenTracesDeterministic re-runs one golden case and requires the
// fingerprints to be identical: the conformance harness is only meaningful if
// a run is a pure function of its settings document.
func TestGoldenTracesDeterministic(t *testing.T) {
	gc := goldenCases()[0]
	a := runGolden(t, gc)
	b := runGolden(t, gc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of %s disagree:\n%+v\n%+v", gc.name, a, b)
	}
}
