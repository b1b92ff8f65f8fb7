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
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"testing"

	"supersim/internal/config"
	"supersim/internal/core"
	"supersim/internal/experiments"
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
