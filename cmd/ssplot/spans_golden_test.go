package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Golden tests for the breakdown plot kind, against the spans stream of the
// OBSERVABILITY.md worked example (a congested tornado on a 4x4 torus), which
// ssplot shares with ssparse: cmd/ssparse/testdata/spans.jsonl. The command
// that regenerates it is in cmd/ssparse/spans_golden_test.go; after a
// regeneration, refresh these goldens with
//
//	SUPERSIM_UPDATE_GOLDEN=1 go test ./cmd/ssplot

func TestGoldenBreakdown(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("breakdown", "", 0, 70, 18, []string{input("spans.jsonl")})
	})
	checkGolden(t, filepath.Join("testdata", "golden_breakdown.txt"), out)
}

func TestGoldenBreakdownCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "breakdown.csv")
	captureStdout(t, func() error {
		return run("breakdown", csv, 0, 70, 18, []string{input("spans.jsonl")})
	})
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_breakdown.csv"), got)
}

func TestBreakdownRejectsFilters(t *testing.T) {
	err := run("breakdown", "", 0, 70, 18, []string{input("spans.jsonl"), "+app=0"})
	if err == nil {
		t.Fatal("breakdown with +filters did not error")
	}
}

func TestBreakdownRejectsWrongStream(t *testing.T) {
	err := run("breakdown", "", 0, 70, 18, []string{input("telemetry.jsonl")})
	if err == nil {
		t.Fatal("telemetry stream accepted as spans stream")
	}
}
