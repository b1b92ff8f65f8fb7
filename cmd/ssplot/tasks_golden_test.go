package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Golden tests for the taskgantt plot kind, against the committed task
// journal (cmd/ssparse/testdata/tasks.jsonl): the five-task fixed-clock fixture graph
// from internal/taskrun.

func TestGoldenTaskGantt(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("taskgantt", "", 0, 70, 18, []string{input("tasks.jsonl")})
	})
	checkGolden(t, filepath.Join("testdata", "golden_taskgantt.txt"), out)
}

func TestGoldenTaskGanttCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "tasks.csv")
	captureStdout(t, func() error {
		return run("taskgantt", csv, 0, 70, 18, []string{input("tasks.jsonl")})
	})
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_taskgantt.csv"), got)
}

func TestTaskGanttRejectsFilters(t *testing.T) {
	err := run("taskgantt", "", 0, 70, 18, []string{input("tasks.jsonl"), "+app=0"})
	if err == nil {
		t.Fatal("taskgantt with +filters did not error")
	}
}

func TestTaskGanttRejectsWrongStream(t *testing.T) {
	err := run("taskgantt", "", 0, 70, 18, []string{input("telemetry.jsonl")})
	if err == nil {
		t.Fatal("telemetry stream accepted as task journal")
	}
}
