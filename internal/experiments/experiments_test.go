package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"supersim/internal/config"
	"supersim/internal/taskrun"
)

func TestCurveSaturationThroughput(t *testing.T) {
	c := Curve{Points: []LoadPoint{
		{Offered: 0.2, Accepted: 0.2},
		{Offered: 0.6, Accepted: 0.58},
		{Offered: 0.9, Accepted: 0.61, Saturated: true},
	}}
	if got := c.SaturationThroughput(); got != 0.61 {
		t.Fatalf("saturation throughput %v", got)
	}
	if (Curve{}).SaturationThroughput() != 0 {
		t.Fatal("empty curve")
	}
}

func TestTableIBuildsAllConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three full networks")
	}
	rows := TableI(Options{})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Buildable {
			t.Fatalf("%s not buildable", r.Study)
		}
	}
	var buf bytes.Buffer
	PrintTableI(&buf, rows)
	for _, want := range []string{"folded-Clos", "flattened butterfly", "4D torus",
		"UGAL", "adaptive uprouting", "dimension order"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table I output missing %q", want)
		}
	}
}

func TestPrintCurves(t *testing.T) {
	var buf bytes.Buffer
	PrintCurves(&buf, "test", []Curve{{
		Label: "series-a",
		Points: []LoadPoint{
			{Offered: 0.5, Accepted: 0.5, Mean: 100, P50: 95, P99: 150, P999: 180},
			{Offered: 0.9, Accepted: 0.7, Mean: 900, Saturated: true},
		},
	}})
	out := buf.String()
	if !strings.Contains(out, "series-a") || !strings.Contains(out, "[saturated]") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestPrintThroughputs(t *testing.T) {
	var buf bytes.Buffer
	PrintThroughputs(&buf, "t", []Curve{{Label: "x", Points: []LoadPoint{{Accepted: 0.42}}}})
	if !strings.Contains(buf.String(), "0.420") {
		t.Fatalf("output %q", buf.String())
	}
}

func TestPrintFigure11(t *testing.T) {
	var buf bytes.Buffer
	PrintFigure11(&buf, []Fig11Point{
		{FlowControl: "flit_buffer", VCs: 2, MsgSize: 1, Throughput: 0.9},
		{FlowControl: "packet_buffer", VCs: 2, MsgSize: 1, Throughput: 0.8},
		{FlowControl: "winner_take_all", VCs: 2, MsgSize: 1, Throughput: 0.85},
	})
	out := buf.String()
	if !strings.Contains(out, "2 VCs") || !strings.Contains(out, "0.900") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestSortedKeys(t *testing.T) {
	got := sortedKeys(map[int]bool{8: true, 2: true, 4: true})
	want := []int{2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sortedKeys = %v", got)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	if (Options{}).seed() != 1 {
		t.Fatal("default seed")
	}
	if (Options{Seed: 7}).seed() != 7 {
		t.Fatal("explicit seed")
	}
	var buf bytes.Buffer
	o := Options{Out: &buf}
	o.logf("x %d", 3)
	if buf.String() != "x 3" {
		t.Fatalf("logf wrote %q", buf.String())
	}
	(Options{}).logf("discarded") // nil writer must not panic
}

func TestSatMark(t *testing.T) {
	if satMark(LoadPoint{Saturated: true}) == "" || satMark(LoadPoint{}) != "" {
		t.Fatal("satMark wrong")
	}
}

func TestFmt9Label(t *testing.T) {
	if !strings.Contains(fmt9Label(4), "4 ns") {
		t.Fatal("label")
	}
}

func TestPow(t *testing.T) {
	if pow(2, 10) != 1024 || pow(5, 0) != 1 {
		t.Fatal("pow")
	}
}

func TestFigure7Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	a := Figure7(Options{Seed: 3})
	b := Figure7(Options{Seed: 3})
	if len(a) != len(b) {
		t.Fatal("curve lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs: %v vs %v — experiments are not deterministic", i, a[i], b[i])
		}
	}
}

// The Figure 5 transient's allocation budget, for one whole run (build,
// simulate, summarize) with telemetry disabled.
const (
	// figure5MaxAllocs: measured ~13.7k (the build and the pooled message
	// lifecycle, where a 1-flit message is one object); the ~5% headroom
	// covers run-to-run jitter, not new per-flit or per-message allocations.
	figure5MaxAllocs = 14400
	// figure5MaxBytes: measured ~19 MB, nearly all of it the recorders'
	// 256 KB chunks (2 x 232k samples x 32 bytes) and one sorted latency
	// vector. It was 167 MB when the recorder was one growing slice; a store
	// that re-copies itself as it grows cannot fit under this.
	figure5MaxBytes = 32000000
)

// TestFigure5AllocationBudget holds the Figure 5 transient to its
// allocation and byte ceilings on the default path and on the explicit
// workers=1 path (simulation.workers set to 1), which must be the same serial
// path: parallel support costs the serial run nothing.
func TestFigure5AllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 5 transient twice")
	}
	for _, tc := range []struct {
		name    string
		workers uint64
	}{{"default", 0}, {"workers_1", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := Figure5(Options{Seed: 1, Workers: tc.workers})
			runtime.ReadMemStats(&after)
			if r.PulsePeak <= r.BlastMean {
				t.Fatalf("pulse did not disturb blast: peak %.1f vs mean %.1f", r.PulsePeak, r.BlastMean)
			}
			allocs := after.Mallocs - before.Mallocs
			allocated := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d allocations, %d bytes", allocs, allocated)
			if allocs > figure5MaxAllocs {
				t.Errorf("%d allocations, ceiling %d", allocs, figure5MaxAllocs)
			}
			if allocated > figure5MaxBytes {
				t.Errorf("%d bytes allocated, ceiling %d", allocated, figure5MaxBytes)
			}
		})
	}
}

func TestSweepLoadsReportsTasksToProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	var buf bytes.Buffer
	j := taskrun.NewJournal(&buf, taskrun.FixedClock(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond))
	opts := Options{Seed: 5, TaskProbe: j}
	c := sweepLoads("fixture", []float64{0.1, 0.2}, opts, func(load float64) *config.Settings {
		return torusConfig(2, 2, 1, "flit_buffer", load, 5, 500)
	})
	j.RunFinished()
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 2 {
		t.Fatalf("points %+v", c.Points)
	}
	_, events, err := taskrun.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Per load point: queued, ready, started, finished — then the done line.
	var finished []string
	for _, ev := range events {
		if ev.Ev == "finished" {
			if ev.State != "succeeded" {
				t.Fatalf("state %+v", ev)
			}
			finished = append(finished, ev.Task)
		}
	}
	want := []string{"fixture load=0.10", "fixture load=0.20"}
	if len(finished) != len(want) || finished[0] != want[0] || finished[1] != want[1] {
		t.Fatalf("finished tasks %v, want %v", finished, want)
	}
	last := events[len(events)-1]
	if last.Ev != "done" || last.Succeeded != 2 {
		t.Fatalf("done event %+v", last)
	}
}
