package sweep

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"supersim/internal/config"
	"supersim/internal/stats"
	"supersim/internal/taskrun"
)

const sweepBase = `{
  "simulation": {"seed": 7},
  "network": {
    "topology": "torus",
    "dimensions": [4],
    "concentration": 1,
    "channel": {"latency": 4, "period": 2},
    "injection": {"latency": 2},
    "router": {
      "architecture": "input_queued",
      "num_vcs": 2,
      "input_buffer_depth": 8,
      "crossbar_latency": 2
    }
  },
  "workload": {
    "applications": [{
      "type": "blast",
      "injection_rate": 0.2,
      "message_size": 1,
      "warmup_duration": 300,
      "sample_duration": 1000,
      "traffic": {"type": "uniform_random"}
    }]
  }
}`

func TestSweepCrossProduct(t *testing.T) {
	s := New(config.MustParse(sweepBase), 2)
	s.AddVariable(Variable{
		Name: "ChannelLatency", Short: "CL", Values: []any{4, 8},
		Apply: func(cfg *config.Settings, v any) {
			cfg.Set("network.channel.latency", v.(int))
		},
	})
	s.AddVariable(Variable{
		Name: "InjectionRate", Short: "IR", Values: []any{0.1, 0.3},
		Apply: func(cfg *config.Settings, v any) {
			cfg.Set("workload.applications", []any{map[string]any{
				"type": "blast", "injection_rate": v.(float64), "message_size": 1,
				"warmup_duration": 300, "sample_duration": 1000,
				"traffic": map[string]any{"type": "uniform_random"},
			}})
		},
	})
	if s.Permutations() != 4 {
		t.Fatalf("Permutations = %d", s.Permutations())
	}
	points, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	ids := map[string]bool{}
	for _, p := range points {
		ids[p.ID] = true
		if p.Err != nil {
			t.Fatalf("point %s failed: %v", p.ID, p.Err)
		}
		if p.Summary.Count == 0 {
			t.Fatalf("point %s has no samples", p.ID)
		}
		if p.Accepted <= 0 {
			t.Fatalf("point %s accepted %v", p.ID, p.Accepted)
		}
	}
	for _, want := range []string{"CL=4_IR=0.1", "CL=4_IR=0.3", "CL=8_IR=0.1", "CL=8_IR=0.3"} {
		if !ids[want] {
			t.Fatalf("missing permutation %s in %v", want, ids)
		}
	}
}

func TestSweepLatencyRisesWithChannelLatency(t *testing.T) {
	s := New(config.MustParse(sweepBase), 1)
	s.AddVariable(Variable{
		Name: "ChannelLatency", Short: "CL", Values: []any{2, 20},
		Apply: func(cfg *config.Settings, v any) {
			cfg.Set("network.channel.latency", v.(int))
		},
	})
	points, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64
	for _, p := range points {
		if p.Values["ChannelLatency"] == 2 {
			lo = p.Summary.Mean
		} else {
			hi = p.Summary.Mean
		}
	}
	if hi <= lo {
		t.Fatalf("mean latency with 20-tick channels (%v) should exceed 2-tick (%v)", hi, lo)
	}
}

func TestSweepNoVariables(t *testing.T) {
	s := New(config.MustParse(sweepBase), 1)
	points, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].ID != "base" {
		t.Fatalf("points = %+v", points)
	}
}

func TestSweepBuildFailureReported(t *testing.T) {
	s := New(config.MustParse(sweepBase), 1)
	s.AddVariable(Variable{
		Name: "Arch", Short: "A", Values: []any{"input_queued", "bogus_arch"},
		Apply: func(cfg *config.Settings, v any) {
			cfg.Set("network.router.architecture", v.(string))
		},
	})
	points, err := s.Run()
	if err == nil {
		t.Fatal("expected aggregate error")
	}
	if !strings.Contains(err.Error(), "bogus_arch") {
		t.Fatalf("error should name the bad architecture: %v", err)
	}
	good := 0
	for _, p := range points {
		if p.Err == nil {
			good++
		}
	}
	if good != 1 {
		t.Fatalf("the valid permutation should still succeed (%d good)", good)
	}
}

func TestSweepInvalidVariablePanics(t *testing.T) {
	s := New(config.MustParse(sweepBase), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.AddVariable(Variable{Name: "x"})
}

func injectionRates(rates ...any) Variable {
	return Variable{
		Name: "InjectionRate", Short: "IR", Values: rates,
		Apply: func(cfg *config.Settings, v any) {
			cfg.Set("workload.applications", []any{map[string]any{
				"type": "blast", "injection_rate": v.(float64), "message_size": 1,
				"source_queue_limit": 2,
				"warmup_duration":    300, "sample_duration": 1000,
				"traffic": map[string]any{"type": "uniform_random"},
			}})
		},
	}
}

func TestSweepDeclarationOrderAndOnPoint(t *testing.T) {
	s := New(config.MustParse(sweepBase), 2)
	s.Name = "fig"
	s.AddVariable(Variable{
		Name: "ChannelLatency", Short: "CL", Values: []any{2, 16, 4},
		Apply: func(cfg *config.Settings, v any) {
			cfg.Set("network.channel.latency", v.(int))
		},
	})
	s.AddVariable(injectionRates(0.1, 1.0))
	seen := map[string]int{}
	s.OnPoint = func(p Point, rec *stats.Recorder) {
		if rec.Count() != p.Summary.Count {
			t.Errorf("%s: recorder has %d samples, point %d", p.ID, rec.Count(), p.Summary.Count)
		}
		seen[p.ID]++ // calls never overlap, so no lock
	}
	points, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig_CL=2_IR=0.1", "fig_CL=2_IR=1", "fig_CL=16_IR=0.1",
		"fig_CL=16_IR=1", "fig_CL=4_IR=0.1", "fig_CL=4_IR=1"}
	if len(points) != len(want) {
		t.Fatalf("got %d points, want %d", len(points), len(want))
	}
	for i, p := range points {
		if p.ID != want[i] || seen[p.ID] != 1 {
			t.Fatalf("point %d is %s (seen %d times by OnPoint), want %s once", i, p.ID, seen[p.ID], want[i])
		}
		// Full offered load overruns a two-message source queue; a tenth of
		// it never does.
		if full := p.Values["InjectionRate"] == 1.0; (p.Skipped > 0) != full {
			t.Errorf("%s: %d injections skipped", p.ID, p.Skipped)
		}
	}
}

func TestSweepStopAfterChain(t *testing.T) {
	var buf bytes.Buffer
	j := taskrun.NewJournal(&buf, taskrun.FixedClock(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond))
	s := New(config.MustParse(sweepBase), 2)
	s.Probe = j
	s.AddVariable(Variable{
		Name: "ChannelLatency", Short: "CL", Values: []any{4, 8},
		Apply: func(cfg *config.Settings, v any) {
			cfg.Set("network.channel.latency", v.(int))
		},
	})
	s.AddVariable(injectionRates(0.1, 0.3, 0.5, 0.7))
	s.StopAfter = func(p Point) bool { return p.Values["InjectionRate"] == 0.3 }
	points, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, p := range points {
		ids = append(ids, p.ID)
	}
	if got, want := strings.Join(ids, " "), "CL=4_IR=0.1 CL=4_IR=0.3 CL=8_IR=0.1 CL=8_IR=0.3"; got != want {
		t.Fatalf("points %s, want %s", got, want)
	}
	_, events, err := taskrun.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	skipped := map[string]bool{}
	for _, ev := range events {
		if ev.Ev == "finished" && ev.State == "skipped" {
			skipped[ev.Task] = true
		}
	}
	for _, id := range []string{"CL=4_IR=0.5", "CL=4_IR=0.7", "CL=8_IR=0.5", "CL=8_IR=0.7"} {
		if !skipped[id] {
			t.Errorf("%s did not finish skipped (skipped: %v)", id, skipped)
		}
	}
}
