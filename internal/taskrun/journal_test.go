package taskrun

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const updateEnv = "SUPERSIM_UPDATE_GOLDEN"

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv(updateEnv) != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set %s=1 to regenerate)", err, updateEnv)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden (set %s=1 to regenerate)\ngot:\n%s\nwant:\n%s",
			name, updateEnv, got, want)
	}
}

func testClock() Clock {
	return FixedClock(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond)
}

// fleetGraph builds the canonical five-task test graph: two sims contending
// for one cpu, a failing parse behind them, a plot canceled by the failure,
// and a condition-skipped task.
func fleetGraph(r *Runner) {
	simA := r.Task("sim_a", func() error { return nil }).Require("cpu", 1)
	simB := r.Task("sim_b", func() error { return nil }).Require("cpu", 1)
	parse := r.Task("parse", func() error { return errors.New("boom") }).After(simA, simB)
	r.Task("plot", func() error { return nil }).After(parse)
	r.Task("cached", func() error { return nil }).OnlyIf(func() bool { return false })
}

func TestJournalGoldenFixedClock(t *testing.T) {
	// Capacity 1 fully serializes execution, so the event order — and with a
	// fixed clock every byte of the journal — is deterministic.
	var buf bytes.Buffer
	j := NewJournal(&buf, testClock())
	r := NewRunner(map[string]int{"cpu": 1})
	r.SetProbe(j)
	fleetGraph(r)
	if err := r.Run(); err == nil {
		t.Fatal("expected run error from the failing parse task")
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_journal.jsonl", buf.Bytes())

	// A second identical run must produce identical bytes.
	var buf2 bytes.Buffer
	r2 := NewRunner(map[string]int{"cpu": 1})
	r2.SetProbe(NewJournal(&buf2, testClock()))
	fleetGraph(r2)
	r2.Run()
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two identical fixed-clock runs wrote different journals")
	}
}

func TestJournalRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, testClock())
	r := NewRunner(map[string]int{"cpu": 1})
	r.SetProbe(j)
	fleetGraph(r)
	r.Run()

	hdr, events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != JournalSchema || hdr.Version != JournalSchemaVersion {
		t.Fatalf("header %+v", hdr)
	}
	if hdr.Capacity["cpu"] != 1 || hdr.Tasks != 5 {
		t.Fatalf("header capacity/tasks: %+v", hdr)
	}
	counts := map[string]int{}
	var done *JournalEvent
	for i, ev := range events {
		counts[ev.Ev]++
		if ev.Ev == "done" {
			done = &events[i]
		}
	}
	if counts["queued"] != 5 || counts["finished"] != 5 || counts["done"] != 1 {
		t.Fatalf("event counts %v", counts)
	}
	// sim_b contends with sim_a for the single cpu: exactly one blocked
	// episode, attributed to the cpu resource.
	if counts["blocked"] != 1 {
		t.Fatalf("blocked events %d, want 1", counts["blocked"])
	}
	for _, ev := range events {
		if ev.Ev == "blocked" && (ev.Task != "sim_b" || ev.Resource != "cpu" || ev.Need != 1) {
			t.Fatalf("blocked attribution %+v", ev)
		}
		if ev.Ev == "started" && ev.Task == "sim_b" && ev.BlockedMS == 0 {
			t.Fatalf("sim_b started without blocked_ms: %+v", ev)
		}
	}
	if done == nil || done.Succeeded != 2 || done.Failed != 1 || done.Skipped != 1 || done.Canceled != 1 {
		t.Fatalf("done line %+v", done)
	}
	if done.WallMS == 0 {
		t.Fatal("done line has no wall_ms")
	}
}

func TestJournalParallelRaceClean(t *testing.T) {
	// With real concurrency the event order is nondeterministic, but the
	// journal must stay a valid stream (all probe calls run under the
	// runner's lock — the race detector enforces the discipline).
	var buf bytes.Buffer
	r := NewRunner(map[string]int{"cpu": 4})
	r.SetProbe(NewJournal(&buf, nil))
	var prev *Task
	for i := 0; i < 12; i++ {
		task := r.Task("t"+string(rune('a'+i)), func() error {
			time.Sleep(time.Millisecond)
			return nil
		}).Require("cpu", 1)
		if i%4 == 3 {
			task.After(prev)
		}
		prev = task
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	hdr, events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Capacity["cpu"] != 4 {
		t.Fatalf("header %+v", hdr)
	}
	finished := 0
	for _, ev := range events {
		if ev.Ev == "finished" {
			finished++
		}
	}
	if finished != 12 {
		t.Fatalf("finished events %d, want 12", finished)
	}
}

func TestJournalSeveralRuns(t *testing.T) {
	// One journal can observe several runners in turn (experiments -journal
	// writes one run per figure sweep): the first run's header stays, and
	// each run ends in a done line with the counts so far.
	var buf bytes.Buffer
	j := NewJournal(&buf, testClock())
	for i, names := range [][]string{{"a"}, {"b", "c"}} {
		r := NewRunner(map[string]int{"cpu": i + 1})
		r.SetProbe(j)
		for _, n := range names {
			r.Task(n, func() error { return nil }).Require("cpu", 1)
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	hdr, events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Tasks != 1 || hdr.Capacity["cpu"] != 1 {
		t.Fatalf("header %+v, want the first run's", hdr)
	}
	var done []int
	for _, ev := range events {
		if ev.Ev == "done" {
			done = append(done, ev.Succeeded)
		}
	}
	if len(done) != 2 || done[0] != 1 || done[1] != 3 {
		t.Fatalf("done lines' succeeded counts %v, want [1 3]", done)
	}
}

func TestJournalStickyWriteError(t *testing.T) {
	j := NewJournal(failWriter{}, testClock())
	r := NewRunner(nil)
	r.SetProbe(j)
	r.Task("t", func() error { return nil })
	if err := r.Run(); err != nil {
		t.Fatal(err) // journal failure must not fail the run
	}
	if j.Err() == nil {
		t.Fatal("write error not reported")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestReadJournalRejects(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"not json":    "nonsense\n",
		"bad schema":  `{"schema":"other","version":1}` + "\n",
		"bad version": `{"schema":"supersim-tasks","version":99}` + "\n",
	}
	for name, in := range cases {
		if _, _, err := ReadJournal(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJournal accepted %q", name, in)
		}
	}
	// Truncated events after a valid header also error.
	in := `{"schema":"supersim-tasks","version":1,"start":"2020-01-01T00:00:00Z"}` + "\n{bad\n"
	if _, _, err := ReadJournal(strings.NewReader(in)); err == nil {
		t.Error("ReadJournal accepted a corrupt event")
	}
}

func TestProbesFanOut(t *testing.T) {
	if Probes() != nil || Probes(nil, nil) != nil {
		t.Fatal("empty Probes must be nil")
	}
	j := NewJournal(&bytes.Buffer{}, testClock())
	if Probes(nil, j) != Probe(j) {
		t.Fatal("single survivor must be returned unwrapped")
	}
	var buf1, buf2 bytes.Buffer
	p := Probes(NewJournal(&buf1, testClock()), nil, NewJournal(&buf2, testClock()))
	r := NewRunner(map[string]int{"cpu": 1})
	r.SetProbe(p)
	fleetGraph(r)
	r.Run()
	if buf1.Len() == 0 || !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("fan-out probes received different event streams")
	}
}

func TestFixedClock(t *testing.T) {
	c := FixedClock(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), time.Second)
	if got := c(); got.Second() != 0 {
		t.Fatalf("first tick %v", got)
	}
	if got := c(); got.Second() != 1 {
		t.Fatalf("second tick %v", got)
	}
}

func TestWallClock(t *testing.T) {
	c := WallClock()
	if c().IsZero() {
		t.Fatal("wall clock returned the zero time")
	}
}
