package ssparse

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"supersim/internal/taskrun"
)

func taskFixtureJournal(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	clock := taskrun.FixedClock(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond)
	j := taskrun.NewJournal(&buf, clock)
	r := taskrun.NewRunner(map[string]int{"cpu": 1})
	r.SetProbe(j)
	a := r.Task("sim_a", func() error { return nil }).Require("cpu", 1)
	b := r.Task("sim_b", func() error { return nil }).Require("cpu", 1)
	r.Task("parse", func() error { return errors.New("boom") }).After(a, b)
	r.Run()
	return &buf
}

func TestLoadTasksTimelines(t *testing.T) {
	log, err := LoadTasks(taskFixtureJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Tasks) != 3 {
		t.Fatalf("tasks %+v", log.Tasks)
	}
	// Queue order is registration order.
	for i, want := range []string{"sim_a", "sim_b", "parse"} {
		if log.Tasks[i].Task != want {
			t.Fatalf("task order %+v", log.Tasks)
		}
	}
	b := log.Tasks[1]
	if b.State != "succeeded" || b.Resource != "cpu" || b.BlockedMS <= 0 {
		t.Fatalf("sim_b resource-wait attribution: %+v", b)
	}
	if b.QueuedMS < 0 || b.ReadyMS < b.QueuedMS || b.StartedMS < b.ReadyMS || b.FinishedMS < b.StartedMS {
		t.Fatalf("sim_b timeline out of order: %+v", b)
	}
	p := log.Tasks[2]
	if p.State != "failed" || p.Err != "boom" || p.RunMS <= 0 {
		t.Fatalf("parse timeline %+v", p)
	}
	if log.Done == nil || log.Done.Succeeded != 2 || log.Done.Failed != 1 {
		t.Fatalf("done event %+v", log.Done)
	}
	if log.SpanMS() != log.Done.WallMS {
		t.Fatalf("span %d != wall %d", log.SpanMS(), log.Done.WallMS)
	}
}

func TestLoadTasksWithoutDoneEvent(t *testing.T) {
	// A journal truncated before the done line (crashed sweep) still loads;
	// the span falls back to the latest event offset.
	full := taskFixtureJournal(t).String()
	lines := strings.Split(strings.TrimSuffix(full, "\n"), "\n")
	truncated := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	log, err := LoadTasks(strings.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if log.Done != nil {
		t.Fatal("done event survived truncation")
	}
	if log.SpanMS() <= 0 {
		t.Fatalf("span fallback %d", log.SpanMS())
	}
}

func TestWriteTasksCSVMarksUnreachedPhases(t *testing.T) {
	var buf bytes.Buffer
	log := &TaskLog{Tasks: []TaskTimeline{{
		Task: "plot", State: "canceled",
		QueuedMS: 4, ReadyMS: -1, StartedMS: -1, FinishedMS: 18,
		WaitMS: -1, BlockedMS: -1, RunMS: -1,
	}}}
	if err := log.WriteTasksCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "plot,canceled,,4,-1,-1,18,-1,-1,-1\n"
	if !strings.HasSuffix(buf.String(), want) {
		t.Fatalf("csv:\n%s", buf.String())
	}
}

// FuzzLoadTasks feeds arbitrary bytes to the task-journal reader behind
// `ssparse -tasks` and `ssplot taskgantt`: a journal is outside input, so it
// must load or fail with an error, never panic. Seeds are the committed
// fixture journal, its truncations and headers of the wrong schema.
func FuzzLoadTasks(f *testing.F) {
	fixture, err := os.ReadFile("../../cmd/ssparse/testdata/tasks.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, n := range []int{len(fixture) / 2, len(fixture) / 3, bytes.IndexByte(fixture, '\n') + 1} {
		f.Add(fixture[:n])
	}
	f.Add([]byte(`{"schema":"supersim-manifest","version":1}`))
	f.Add([]byte(`{"schema":"supersim-tasks","version":2}`))
	f.Add([]byte(`{"schema":"supersim-tasks","version":1}` + "\n" + `{"t":1,"ev":"done","res":{"cpu":-1}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := LoadTasks(bytes.NewReader(data))
		if err != nil {
			return
		}
		log.SpanMS()
		if err := log.WriteTasksCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
