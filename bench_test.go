// Package supersim's benchmark harness regenerates every table and figure in
// the paper's evaluation. Each benchmark runs the corresponding experiment
// once per iteration and prints its rows/series; b.N is 1 in practice since
// an experiment takes seconds to minutes.
//
//	go test -bench=. -benchmem                 # reduced-scale suite
//	SUPERSIM_FULL=1 go test -bench=Figure9b    # paper-scale (hours)
//
// Profiling: the standard go test flags produce pprof profiles of any
// benchmark (go test -bench=Figure5 -cpuprofile=cpu.out -memprofile=mem.out),
// and SUPERSIM_MONITOR=N attaches a sim.ProgressMonitor to every simulation,
// printing an events/sec + heap line to stderr every N executed events.
//
// See EXPERIMENTS.md for the recorded outputs and paper-vs-measured notes.
package supersim_test

import (
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"testing"

	"fmt"

	"supersim/internal/config"
	"supersim/internal/core"
	"supersim/internal/experiments"
	"supersim/internal/sim"
	"supersim/internal/stats"
)

func benchName(prefix string, v uint64) string { return fmt.Sprintf("%s_%d", prefix, v) }

func opts(b *testing.B) experiments.Options {
	debug.SetGCPercent(600) // DES allocation churn likes a lazier GC
	var out io.Writer
	if testing.Verbose() {
		out = os.Stderr
	}
	monitor, _ := strconv.ParseUint(os.Getenv("SUPERSIM_MONITOR"), 10, 64)
	return experiments.Options{
		Full:         os.Getenv("SUPERSIM_FULL") == "1",
		Seed:         1,
		Out:          out,
		MonitorEvery: monitor,
	}
}

// BenchmarkTableI validates the three case-study parameter sets build.
func BenchmarkTableI(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.TableI(o)
		for _, r := range rows {
			if !r.Buildable {
				b.Fatalf("%s configuration failed to build", r.Study)
			}
		}
		if i == 0 {
			experiments.PrintTableI(os.Stdout, rows)
		}
	}
}

// BenchmarkFigure5 regenerates the Blast/Pulse transient (Figure 5).
func BenchmarkFigure5(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5(o)
		if r.PulsePeak <= r.BlastMean {
			b.Fatalf("pulse did not disturb blast: peak %.1f vs mean %.1f",
				r.PulsePeak, r.BlastMean)
		}
		if i == 0 {
			experiments.PrintFigure5(os.Stdout, r)
		}
	}
}

// BenchmarkFigure5Spans runs the same transient with span recording enabled
// at full sampling (fold-only, no JSONL stream) — the instrumented
// counterpart of the bench-guard's disabled-path BenchmarkFigure5. Run via
// `make bench-guard-spans`; the guard reports it informationally and only
// enforces the disabled-path ceiling.
func BenchmarkFigure5Spans(b *testing.B) {
	o := opts(b)
	o.SpansSample = 1.0
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5(o)
		if r.PulsePeak <= r.BlastMean {
			b.Fatalf("pulse did not disturb blast: peak %.1f vs mean %.1f",
				r.PulsePeak, r.BlastMean)
		}
	}
}

// BenchmarkFigure5Workers runs the Figure 5 transient at explicit worker
// counts. The workers_1 case is the serial path reached through the
// simulation.workers setting — `make bench-guard` enforces the committed
// allocs/op ceiling against it, pinning "parallel support costs the serial
// path nothing". The higher counts exercise the sharded engine end to end and
// report its wall-clock for EXPERIMENTS.md (speedup is hardware-dependent;
// results are identical at every count).
func BenchmarkFigure5Workers(b *testing.B) {
	for _, w := range []uint64{1, 2, 4} {
		b.Run(benchName("workers", w), func(b *testing.B) {
			o := opts(b)
			o.Workers = w
			for i := 0; i < b.N; i++ {
				r := experiments.Figure5(o)
				if r.PulsePeak <= r.BlastMean {
					b.Fatalf("pulse did not disturb blast: peak %.1f vs mean %.1f",
						r.PulsePeak, r.BlastMean)
				}
			}
		})
	}
}

// BenchmarkFigure5TraceParallel runs the Figure 5 transient at workers=2
// with full-sampling flit tracing: every trace record lands in a per-shard
// lane and the end-of-run merge reassembles the serial emission order. The
// bench-guard reports it informationally alongside the spans path — the
// enforced ceiling stays on the tracing-disabled benchmarks, whose hot path
// this feature must not touch.
func BenchmarkFigure5TraceParallel(b *testing.B) {
	o := opts(b)
	o.Workers = 2
	o.TraceFile = filepath.Join(b.TempDir(), "trace.json")
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5(o)
		if r.PulsePeak <= r.BlastMean {
			b.Fatalf("pulse did not disturb blast: peak %.1f vs mean %.1f",
				r.PulsePeak, r.BlastMean)
		}
	}
}

// BenchmarkFigure7 regenerates the percentile distribution plot (Figure 7).
func BenchmarkFigure7(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		curve := experiments.Figure7(o)
		if len(curve) == 0 {
			b.Fatal("no percentile points")
		}
		if i == 0 {
			experiments.PrintFigure7(os.Stdout, curve)
		}
	}
}

// BenchmarkFigure8 regenerates the load-vs-latency-distribution plot with
// phantom congestion (Figure 8).
func BenchmarkFigure8(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		c := experiments.Figure8(o)
		if len(c.Points) < 3 {
			b.Fatal("load sweep too short")
		}
		if i == 0 {
			experiments.PrintCurves(os.Stdout, "Figure 8", []experiments.Curve{c})
		}
	}
}

// BenchmarkFigure9a regenerates the congestion sensing latency sweep with
// infinite output queues (Figure 9a).
func BenchmarkFigure9a(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		curves := experiments.Figure9(o, true)
		if i == 0 {
			experiments.PrintCurves(os.Stdout, "Figure 9a", curves)
		}
	}
}

// BenchmarkFigure9b regenerates the sweep with finite 64-flit output queues
// (Figure 9b), where throughput collapses with sensing latency.
func BenchmarkFigure9b(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		curves := experiments.Figure9(o, false)
		if i == 0 {
			experiments.PrintCurves(os.Stdout, "Figure 9b", curves)
		}
	}
}

// BenchmarkFigure9Small regenerates the §VI-A 512-terminal text result
// (paper: 90%, 90%, 75%, 40% throughput at 1, 2, 4, 8 ns sensing latency).
func BenchmarkFigure9Small(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		curves := experiments.Figure9Small(o)
		first := curves[0].SaturationThroughput()
		last := curves[len(curves)-1].SaturationThroughput()
		if last >= first {
			b.Fatalf("throughput did not degrade with sensing latency: %.3f -> %.3f",
				first, last)
		}
		if i == 0 {
			experiments.PrintThroughputs(os.Stdout, "VI-A 512-terminal variant", curves)
		}
	}
}

// BenchmarkFigure10a regenerates the credit accounting comparison under
// uniform random traffic (Figure 10a; port-based accounting wins).
func BenchmarkFigure10a(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		curves := experiments.Figure10(o, false)
		if i == 0 {
			experiments.PrintCurves(os.Stdout, "Figure 10a", curves)
		}
	}
}

// BenchmarkFigure10b regenerates the comparison under bit complement traffic
// (Figure 10b; VC-based accounting wins).
func BenchmarkFigure10b(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		curves := experiments.Figure10(o, true)
		if i == 0 {
			experiments.PrintCurves(os.Stdout, "Figure 10b", curves)
		}
	}
}

// BenchmarkFigure11 regenerates the flow control technique throughput matrix
// (Figure 11: FB vs PB vs WTA across message sizes and VC counts).
func BenchmarkFigure11(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		points := experiments.Figure11(o)
		if i == 0 {
			experiments.PrintFigure11(os.Stdout, points)
		}
	}
}

// BenchmarkFigure12 regenerates the flow control latency comparison at 8 VCs
// with 32-flit messages (Figure 12: FB best, PB worst, WTA between).
func BenchmarkFigure12(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		curves := experiments.Figure12(o)
		if i == 0 {
			experiments.PrintCurves(os.Stdout, "Figure 12", curves)
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkEventQueue measures raw DES engine throughput: events/op is the
// metric (one op = one scheduled+executed event) at a realistic pending-set
// size.
func BenchmarkEventQueue(b *testing.B) {
	s := sim.NewSimulator(1)
	const pending = 8192
	var h sim.Handler
	h = sim.HandlerFunc(func(ev *sim.Event) {
		s.Schedule(h, s.Now().Plus(1+sim.Tick(ev.Type%97)), ev.Type, nil)
	})
	for i := 0; i < pending; i++ {
		s.Schedule(h, sim.Time{Tick: sim.Tick(i%97) + 1}, i, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += pending {
		s.RunUntil(s.Now().Tick + 97)
	}
}

// BenchmarkAblationRouterArch compares the three router architectures on an
// identical small workload, quantifying the paper's claim that the OQ model
// reduces simulation execution time.
func BenchmarkAblationRouterArch(b *testing.B) {
	mk := func(arch string) *config.Settings {
		cfg := config.MustParse(`{
		  "simulation": {"seed": 5},
		  "network": {
		    "topology": "hyperx",
		    "widths": [8], "concentration": 4,
		    "channel": {"latency": 20, "period": 2},
		    "injection": {"latency": 2},
		    "router": {
		      "architecture": "` + arch + `",
		      "num_vcs": 2, "input_buffer_depth": 32,
		      "crossbar_latency": 10, "queue_latency": 10,
		      "output_queue_depth": 64
		    },
		    "routing": {"algorithm": "dimension_order"}
		  },
		  "workload": {"applications": [{
		    "type": "blast", "injection_rate": 0.4, "message_size": 1,
		    "warmup_duration": 500, "sample_duration": 3000,
		    "traffic": {"type": "uniform_random"}
		  }]}
		}`)
		return cfg
	}
	for _, arch := range []string{"output_queued", "input_queued", "input_output_queued"} {
		b.Run(arch, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sm := core.Build(mk(arch))
				if _, err := sm.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(sm.Sim.Executed()), "events")
			}
		})
	}
}

// BenchmarkAblationArbiter compares round-robin against age-based
// arbitration on the parking lot workload: the fairness ratio (far terminal
// deliveries / near terminal deliveries) is reported per policy.
func BenchmarkAblationArbiter(b *testing.B) {
	run := func(policy string) float64 {
		cfg := config.MustParse(`{
		  "simulation": {"seed": 21},
		  "network": {
		    "topology": "parking_lot", "routers": 5,
		    "channel": {"latency": 4, "period": 2},
		    "injection": {"latency": 2},
		    "router": {
		      "architecture": "input_queued", "num_vcs": 1,
		      "input_buffer_depth": 8, "crossbar_latency": 2,
		      "crossbar_policy": "` + policy + `",
		      "vc_policy": "` + policy + `"
		    }
		  },
		  "workload": {"applications": [{
		    "type": "blast", "injection_rate": 0.9, "message_size": 1,
		    "warmup_duration": 1000, "sample_duration": 8000,
		    "source_queue_limit": 16,
		    "traffic": {"type": "fixed", "destination": 0}
		  }]}
		}`)
		sm := core.Build(cfg)
		if _, err := sm.Run(); err != nil {
			b.Fatal(err)
		}
		counts := map[int]int{}
		rec := sm.Workload.App(0).(stats.Provider).Stats()
		for i := 0; i < rec.Count(); i++ {
			counts[rec.At(i).Src]++
		}
		if counts[1] == 0 {
			return 0
		}
		return float64(counts[4]) / float64(counts[1])
	}
	for _, policy := range []string{"round_robin", "age_based"} {
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(run(policy), "fairness")
			}
		})
	}
}

// BenchmarkAblationSensorDelay measures the cost of the delayed-visibility
// congestion sensor against a zero-latency sensor on the Clos workload.
func BenchmarkAblationSensorDelay(b *testing.B) {
	for _, lat := range []uint64{0, 8, 32} {
		b.Run(benchName("latency", lat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.MustParse(`{
				  "simulation": {"seed": 2},
				  "network": {
				    "topology": "folded_clos", "half_radix": 4, "levels": 2,
				    "channel": {"latency": 20, "period": 1},
				    "injection": {"latency": 1},
				    "router": {
				      "architecture": "output_queued", "num_vcs": 1,
				      "input_buffer_depth": 64, "queue_latency": 10,
				      "congestion_sensor": {"granularity": "port", "source": "output"}
				    }
				  },
				  "workload": {"applications": [{
				    "type": "blast", "injection_rate": 0.5, "message_size": 1,
				    "warmup_duration": 500, "sample_duration": 3000,
				    "traffic": {"type": "uniform_random"}
				  }]}
				}`)
				cfg.Set("network.router.congestion_sensor.latency", lat)
				sm := core.Build(cfg)
				if _, err := sm.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
