package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"supersim/internal/stats"
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
			{Offered: 0.5, Accepted: 0.5, Summary: stats.Summary{Mean: 100, P50: 95, P99: 150, P999: 180}},
			{Offered: 0.9, Accepted: 0.7, Summary: stats.Summary{Mean: 900}, Saturated: true},
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
	t.Parallel()
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
// allocation and byte ceilings. It counts process-wide MemStats, so it stays
// sequential: the parallel claim tests start only after it has finished.
func TestFigure5AllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 5 transient")
	}
	t.Run("default", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := Figure5(Options{Seed: 1})
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

func TestTableIRowReportsBuildFailure(t *testing.T) {
	r := tableIRow("broken", nil, torusConfig(2, 2, 1, "no_such_flow_control", 0.5, 1, 100))
	if r.Buildable || r.Err == nil {
		t.Fatalf("a config with an unknown flow control reads buildable=%v, err %v", r.Buildable, r.Err)
	}
	var buf bytes.Buffer
	PrintTableI(&buf, []TableIRow{r})
	if !strings.Contains(buf.String(), "buildable=false") || !strings.Contains(buf.String(), "no_such_flow_control") {
		t.Fatalf("output does not report the failure:\n%s", buf.String())
	}
}

// reducedFigure9 runs a 16-terminal Figure 9b on procs workers: sensing
// latencies 1 and 8 ns at loads 0.8, 0.9 and 1.0. At seed 1 the 1 ns curve
// saturates at its last load and the 8 ns curve at 0.9, so its 1.0 point is
// skipped. It returns the printed curves and the journal.
func reducedFigure9(t *testing.T, procs int) (printed []byte, journal []taskrun.JournalEvent) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var jb, out bytes.Buffer
	j := taskrun.NewJournal(&jb, taskrun.FixedClock(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond))
	opts := Options{Seed: 1, TaskProbe: j}
	PrintCurves(&out, "reduced Figure 9b", figure9(opts, "fig9b", 4, 2, 64, []uint64{1, 8}, []float64{0.8, 0.9, 1.0}, 300))
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	_, events, err := taskrun.ReadJournal(&jb)
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), events
}

// finalStates maps each task of a journal to its final state.
func finalStates(events []taskrun.JournalEvent) map[string]string {
	states := map[string]string{}
	for _, ev := range events {
		if ev.Ev == "finished" {
			states[ev.Task] = ev.State
		}
	}
	return states
}

// TestFigureSweepSerialEqualsParallel: every point has its own config and
// seed, so a figure prints the same bytes and its journal holds the same
// tasks in the same final states on one worker and on two. It runs under
// -short, so the race detector sees the figure sweeps' worker goroutines.
func TestFigureSweepSerialEqualsParallel(t *testing.T) {
	serial, serialJournal := reducedFigure9(t, 1)
	parallel, parallelJournal := reducedFigure9(t, 2)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("serial output:\n%s\nparallel output:\n%s", serial, parallel)
	}
	a, b := finalStates(serialJournal), finalStates(parallelJournal)
	if len(a) != len(b) {
		t.Fatalf("serial tasks %v, parallel tasks %v", a, b)
	}
	for task, st := range a {
		if b[task] != st {
			t.Fatalf("task %s: serial %s, parallel %q", task, st, b[task])
		}
	}
}

// TestFigureSweepJournal: each point of a figure sweep is a task with a
// unique name, and a load after a curve's first saturated point is a
// skipped task.
func TestFigureSweepJournal(t *testing.T) {
	printed, events := reducedFigure9(t, runtime.GOMAXPROCS(0))
	queued := map[string]int{}
	for _, ev := range events {
		if ev.Ev == "queued" {
			queued[ev.Task]++
		}
	}
	want := map[string]string{
		"fig9b_SL=1_load=0.8": "succeeded", "fig9b_SL=1_load=0.9": "succeeded", "fig9b_SL=1_load=1": "succeeded",
		"fig9b_SL=8_load=0.8": "succeeded", "fig9b_SL=8_load=0.9": "succeeded", "fig9b_SL=8_load=1": "skipped",
	}
	states := finalStates(events)
	if len(queued) != len(want) || len(states) != len(want) {
		t.Fatalf("queued %v, finished %v, want %d tasks", queued, states, len(want))
	}
	for task, st := range want {
		if queued[task] != 1 || states[task] != st {
			t.Errorf("task %s: queued %d times, finished %q, want once and %s", task, queued[task], states[task], st)
		}
	}
	if n := strings.Count(string(printed), "[saturated]"); n != 2 {
		t.Errorf("%d saturated points printed, want 2:\n%s", n, printed)
	}
}
