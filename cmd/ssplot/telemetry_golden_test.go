package main

import (
	"os"
	"path/filepath"
	"testing"
)

// Golden tests for the telemetry-backed plot kinds, against a committed
// snapshot stream: chanutil must average over the full channel population
// from the baseline bin (idle channels included in the denominator), rates
// must zero-fill bins an application was silent in.

func TestGoldenTelemetryPlots(t *testing.T) {
	stream := input("telemetry.jsonl")
	for _, kind := range []string{"chanutil", "rates"} {
		t.Run(kind, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return run(kind, "", 0, 60, 16, []string{stream})
			})
			checkGolden(t, filepath.Join("testdata", "golden_"+kind+".txt"), out)
		})
	}
}

func TestGoldenTelemetryPlotCSV(t *testing.T) {
	stream := input("telemetry.jsonl")
	csv := filepath.Join(t.TempDir(), "o.csv")
	captureStdout(t, func() error {
		return run("rates", csv, 0, 60, 16, []string{stream})
	})
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_rates.csv"), got)
}

func TestTelemetryPlotNoMatches(t *testing.T) {
	stream := input("telemetry.jsonl")
	err := run("chanutil", "", 0, 60, 16, []string{stream, "+comp=nonexistent"})
	if err == nil {
		t.Fatal("empty record set did not error")
	}
}
