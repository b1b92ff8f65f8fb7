package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/stats"
	"supersim/internal/workload/apps"
)

// runCfg builds, runs and returns the blast recorder summary.
func runCfg(t *testing.T, doc string) (*Simulation, stats.Summary) {
	t.Helper()
	sm := Build(config.MustParse(doc))
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	blast := sm.Workload.App(0).(*apps.Blast)
	if blast.Stats().Count() == 0 {
		t.Fatal("no samples recorded")
	}
	return sm, blast.Stats().Summarize()
}

func netDoc(network, traffic string, rate float64) string {
	return fmt.Sprintf(`{
	  "simulation": {"seed": 9},
	  "network": %s,
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": %g,
	      "message_size": 1,
	      "warmup_duration": 400,
	      "sample_duration": 1500,
	      "traffic": %s
	    }]
	  }
	}`, network, rate, traffic)
}

const stdRouter = `"router": {
  "architecture": "input_queued",
  "num_vcs": %d,
  "input_buffer_depth": 8,
  "crossbar_latency": 2
}`

func TestTorus3DOddWidths(t *testing.T) {
	// Odd widths exercise the minus direction and asymmetric ring halves.
	net := `{
	  "topology": "torus",
	  "dimensions": [3, 5, 3],
	  "concentration": 2,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  ` + fmt.Sprintf(stdRouter, 2) + `
	}`
	sm, sum := runCfg(t, netDoc(net, `{"type": "uniform_random"}`, 0.1))
	if sm.Net.NumTerminals() != 90 {
		t.Fatalf("terminals = %d", sm.Net.NumTerminals())
	}
	// Max hops: ceil(3/2)? per dim: 1 + 2 + 1 = 4 router-router, +1 leaf.
	if sum.MeanHops < 1 || sum.MeanHops > 6 {
		t.Fatalf("mean hops %v implausible", sum.MeanHops)
	}
}

func TestTorusTornadoTraffic(t *testing.T) {
	net := `{
	  "topology": "torus",
	  "dimensions": [6],
	  "concentration": 1,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  ` + fmt.Sprintf(stdRouter, 2) + `
	}`
	traffic := `{"type": "tornado", "widths": [6], "concentration": 1}`
	_, sum := runCfg(t, netDoc(net, traffic, 0.15))
	// Tornado on width 6: offset 2, all shortest paths 2 hops + eject = 3.
	if sum.MeanHops != 3 {
		t.Fatalf("tornado hops %v, want 3", sum.MeanHops)
	}
}

func TestHyperX2D(t *testing.T) {
	net := `{
	  "topology": "hyperx",
	  "widths": [3, 4],
	  "concentration": 2,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  ` + fmt.Sprintf(stdRouter, 2) + `,
	  "routing": {"algorithm": "dimension_order"}
	}`
	sm, sum := runCfg(t, netDoc(net, `{"type": "uniform_random"}`, 0.1))
	if sm.Net.NumTerminals() != 24 {
		t.Fatalf("terminals = %d", sm.Net.NumTerminals())
	}
	// At most one hop per dimension plus ejection: hops in [1, 3].
	if sum.MeanHops < 1 || sum.MeanHops > 3 {
		t.Fatalf("hyperx hops %v", sum.MeanHops)
	}
}

func TestHyperXValiantDeroutesEverything(t *testing.T) {
	net := `{
	  "topology": "hyperx",
	  "widths": [6],
	  "concentration": 1,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  ` + fmt.Sprintf(stdRouter, 2) + `,
	  "routing": {"algorithm": "valiant"}
	}`
	sm, sum := runCfg(t, netDoc(net, `{"type": "uniform_random"}`, 0.1))
	_ = sm
	if sum.NonMinimal < 0.5 {
		t.Fatalf("valiant nonminimal fraction %v, want most traffic derouted", sum.NonMinimal)
	}
	if sum.MeanHops <= 2 {
		t.Fatalf("valiant hops %v should exceed minimal 2", sum.MeanHops)
	}
}

func TestHyperXUGALMostlyMinimalAtLowLoad(t *testing.T) {
	net := `{
	  "topology": "hyperx",
	  "widths": [6],
	  "concentration": 1,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  ` + fmt.Sprintf(stdRouter, 2) + `,
	  "routing": {"algorithm": "ugal"}
	}`
	_, sum := runCfg(t, netDoc(net, `{"type": "uniform_random"}`, 0.05))
	if sum.NonMinimal > 0.5 {
		t.Fatalf("ugal at low uniform load deroutes %v of traffic", sum.NonMinimal)
	}
}

func TestDragonflyValiant(t *testing.T) {
	net := `{
	  "topology": "dragonfly",
	  "concentration": 1,
	  "group_size": 2,
	  "global_links": 1,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  ` + fmt.Sprintf(stdRouter, 3) + `,
	  "routing": {"algorithm": "valiant"}
	}`
	_, sum := runCfg(t, netDoc(net, `{"type": "uniform_random"}`, 0.1))
	if sum.NonMinimal == 0 {
		t.Fatal("valiant never derouted")
	}
}

func TestDragonflyUGALAdversarial(t *testing.T) {
	// With all traffic from each group aimed at the "next" terminal, the
	// single inter-group link saturates; UGAL must deroute some traffic.
	net := `{
	  "topology": "dragonfly",
	  "concentration": 2,
	  "group_size": 2,
	  "global_links": 1,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  "router": {
	    "architecture": "input_queued",
	    "num_vcs": 3,
	    "input_buffer_depth": 8,
	    "crossbar_latency": 2,
	    "congestion_sensor": {"granularity": "port", "source": "downstream"}
	  },
	  "routing": {"algorithm": "ugal"}
	}`
	// group size a=2, h=1 => 3 groups, 6 routers, 12 terminals.
	traffic := `{"type": "neighbor"}`
	_, sum := runCfg(t, netDoc(net, traffic, 0.2))
	if sum.Count == 0 {
		t.Fatal("nothing sampled")
	}
}

func TestFoldedClosObliviousUprouting(t *testing.T) {
	net := `{
	  "topology": "folded_clos",
	  "half_radix": 2,
	  "levels": 2,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  "router": {
	    "architecture": "input_queued",
	    "num_vcs": 2,
	    "input_buffer_depth": 8,
	    "crossbar_latency": 2
	  },
	  "routing": {"algorithm": "oblivious_uprouting"}
	}`
	sm, _ := runCfg(t, netDoc(net, `{"type": "uniform_random"}`, 0.2))
	if sm.Net.NumTerminals() != 4 {
		t.Fatalf("terminals = %d", sm.Net.NumTerminals())
	}
}

func TestOQInfiniteQueues(t *testing.T) {
	net := `{
	  "topology": "folded_clos",
	  "half_radix": 2,
	  "levels": 2,
	  "channel": {"latency": 4, "period": 1},
	  "injection": {"latency": 1},
	  "router": {
	    "architecture": "output_queued",
	    "num_vcs": 1,
	    "input_buffer_depth": 16,
	    "queue_latency": 3,
	    "output_queue_depth": 0
	  }
	}`
	_, sum := runCfg(t, netDoc(net, `{"type": "uniform_random"}`, 0.5))
	if sum.Mean <= 0 {
		t.Fatal("no latency measured")
	}
}

func TestIOQWithoutSpeedup(t *testing.T) {
	net := `{
	  "topology": "hyperx",
	  "widths": [4],
	  "concentration": 2,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  "router": {
	    "architecture": "input_output_queued",
	    "num_vcs": 2,
	    "input_buffer_depth": 8,
	    "output_queue_depth": 16,
	    "crossbar_latency": 2
	  },
	  "routing": {"algorithm": "dimension_order"}
	}`
	runCfg(t, netDoc(net, `{"type": "uniform_random"}`, 0.3))
}

func TestMultiDimTornadoOnTorusIQHighLoad(t *testing.T) {
	net := `{
	  "topology": "torus",
	  "dimensions": [4, 4],
	  "concentration": 1,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  ` + fmt.Sprintf(stdRouter, 4) + `
	}`
	traffic := `{"type": "tornado", "widths": [4, 4], "concentration": 1}`
	_, sum := runCfg(t, netDoc(net, traffic, 0.4))
	if sum.Count == 0 {
		t.Fatal("no samples")
	}
}

func TestBuildEErrors(t *testing.T) {
	_, err := BuildE(config.MustParse(`{"network": {"topology": "nope"}, "workload": {"applications": []}}`))
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("BuildE error %v", err)
	}
	_, err = BuildE(config.MustParse(`{}`))
	if err == nil {
		t.Fatal("missing network block must fail")
	}
}

// TestBuildEClosesTelemetryFilesOnFailure builds a network that panics after
// the telemetry has created its snapshot and spans files; BuildE must return
// the error with both files closed, since a sweep builds one simulation per
// permutation in one process.
func TestBuildEClosesTelemetryFilesOnFailure(t *testing.T) {
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	cfg := config.MustParse(netDoc(`{"topology": "torus", "dimensions": [1], "router": {"num_vcs": 2}}`,
		`{"type": "uniform_random"}`, 0.1))
	if err := cfg.ApplyOverrides([]string{
		"simulation.telemetry.enabled=bool=true",
		"simulation.telemetry.snapshot_file=string=" + filepath.Join(dir, "telemetry.jsonl"),
		"simulation.telemetry.spans_file=string=" + filepath.Join(dir, "spans.jsonl"),
	}); err != nil {
		t.Fatal(err)
	}
	before := openFiles()
	if _, err := BuildE(cfg); err == nil {
		t.Fatal("a torus of width 1 must fail to build")
	}
	if after := openFiles(); after != before {
		t.Fatalf("open files %d before the failed BuildE, %d after", before, after)
	}
}

func TestInvalidTopologyConfigs(t *testing.T) {
	bad := []string{
		`{"topology": "torus", "dimensions": [], "router": {"num_vcs": 2}}`,
		`{"topology": "torus", "dimensions": [1], "router": {"num_vcs": 2}}`,
		`{"topology": "torus", "dimensions": [4], "concentration": 0, "router": {"num_vcs": 2}}`,
		`{"topology": "torus", "dimensions": [4], "router": {"num_vcs": 3}}`,
		`{"topology": "torus", "dimensions": [4], "router": {"num_vcs": 2}, "routing": {"algorithm": "x"}}`,
		`{"topology": "hyperx", "widths": [], "router": {}}`,
		`{"topology": "hyperx", "widths": [1], "router": {}}`,
		`{"topology": "hyperx", "widths": [4], "router": {"num_vcs": 1}, "routing": {"algorithm": "ugal"}}`,
		`{"topology": "hyperx", "widths": [4], "router": {}, "routing": {"algorithm": "x"}}`,
		`{"topology": "folded_clos", "half_radix": 1, "levels": 3, "router": {}}`,
		`{"topology": "folded_clos", "half_radix": 4, "levels": 1, "router": {}}`,
		`{"topology": "folded_clos", "half_radix": 4, "levels": 2, "router": {}, "routing": {"algorithm": "x"}}`,
		`{"topology": "dragonfly", "concentration": 0, "group_size": 2, "global_links": 1, "router": {}}`,
		`{"topology": "dragonfly", "concentration": 1, "group_size": 2, "global_links": 1, "router": {"num_vcs": 1}}`,
		`{"topology": "dragonfly", "concentration": 1, "group_size": 2, "global_links": 1, "router": {"num_vcs": 3}, "routing": {"algorithm": "x"}}`,
		`{"topology": "parking_lot", "routers": 1, "router": {}}`,
	}
	for _, net := range bad {
		doc := netDoc(net, `{"type": "uniform_random"}`, 0.1)
		if _, err := BuildE(config.MustParse(doc)); err == nil {
			t.Errorf("config should be rejected: %s", net)
		}
	}
}

func TestPacketBufferHighLoadDrains(t *testing.T) {
	// Packet-buffer flow control with long messages at saturating load on a
	// wrapped ring is the most deadlock-prone combination: full-packet
	// credit reservations plus dateline VC switching. The run must still
	// complete all four phases and drain (Run verifies quiescence).
	net := `{
	  "topology": "torus",
	  "dimensions": [4],
	  "concentration": 1,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  "router": {
	    "architecture": "input_queued",
	    "num_vcs": 4,
	    "input_buffer_depth": 16,
	    "crossbar_latency": 2,
	    "flow_control": "packet_buffer"
	  }
	}`
	doc := strings.Replace(netDoc(net, `{"type": "uniform_random"}`, 0.95),
		`"message_size": 1`, `"message_size": 8, "source_queue_limit": 8`, 1)
	sm := Build(config.MustParse(doc))
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWTAHighLoadDrains(t *testing.T) {
	net := `{
	  "topology": "torus",
	  "dimensions": [4],
	  "concentration": 1,
	  "channel": {"latency": 4, "period": 2},
	  "injection": {"latency": 2},
	  "router": {
	    "architecture": "input_queued",
	    "num_vcs": 2,
	    "input_buffer_depth": 8,
	    "crossbar_latency": 2,
	    "flow_control": "winner_take_all"
	  }
	}`
	doc := strings.Replace(netDoc(net, `{"type": "uniform_random"}`, 0.95),
		`"message_size": 1`, `"message_size": 16, "source_queue_limit": 8`, 1)
	sm := Build(config.MustParse(doc))
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
}
