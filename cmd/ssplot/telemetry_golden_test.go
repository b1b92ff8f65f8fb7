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

// TestGoldenShardUtil pins the shardutil plot against a committed parallel
// engine snapshot stream: one series per shard from the engine_window_events
// deltas, non-engine records ignored, bins aligned across shards.
func TestGoldenShardUtil(t *testing.T) {
	stream := input("engine.jsonl")
	out := captureStdout(t, func() error {
		return run("shardutil", "", 0, 60, 16, []string{stream})
	})
	checkGolden(t, filepath.Join("testdata", "golden_shardutil.txt"), out)
}

func TestGoldenShardUtilCSV(t *testing.T) {
	stream := input("engine.jsonl")
	csv := filepath.Join(t.TempDir(), "o.csv")
	captureStdout(t, func() error {
		return run("shardutil", csv, 0, 60, 16, []string{stream})
	})
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_shardutil.csv"), got)
}

// The shardutil reducer must come up empty — not crash, not plot noise — on
// a serial stream with no engine metrics.
func TestShardUtilNoEngineMetrics(t *testing.T) {
	stream := input("telemetry.jsonl")
	if err := run("shardutil", "", 0, 60, 16, []string{stream}); err == nil {
		t.Fatal("serial stream without engine metrics did not error")
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
