package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// End-to-end golden tests: the shared sample log runs through the real
// run() entry point for every plot kind at a fixed terminal size, and the
// rendered output must match the committed goldens byte for byte. Regenerate
// after intentional output changes with:
//
//	SUPERSIM_UPDATE_GOLDEN=1 go test ./cmd/ssplot

const updateEnv = "SUPERSIM_UPDATE_GOLDEN"

// input names one of the tool-input fixtures (the sample log and the
// telemetry, engine, spans and task streams), which ssplot shares with
// ssparse: one copy lives in cmd/ssparse/testdata.
func input(name string) string {
	return filepath.Join("..", "ssparse", "testdata", name)
}

func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		buf, _ := io.ReadAll(r)
		done <- buf
	}()
	ferr := fn()
	os.Stdout = orig
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

func checkGolden(t *testing.T, goldenPath string, got []byte) {
	t.Helper()
	if os.Getenv(updateEnv) != "" {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with %s=1 to create): %v", updateEnv, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s\ngot:\n%s\nwant:\n%s\nRegenerate with %s=1 if intentional.",
			goldenPath, got, want, updateEnv)
	}
}

func TestGoldenPlots(t *testing.T) {
	log := input("sample.log")
	for _, kind := range []string{"percentile", "cdf", "pdf", "timeseries"} {
		t.Run(kind, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return run(kind, "", 100, 60, 16, []string{log})
			})
			checkGolden(t, filepath.Join("testdata", "golden_"+kind+".txt"), out)
		})
	}
}

func TestGoldenPlotCSV(t *testing.T) {
	log := input("sample.log")
	csv := filepath.Join(t.TempDir(), "o.csv")
	captureStdout(t, func() error {
		return run("cdf", csv, 100, 60, 16, []string{log})
	})
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_cdf.csv"), got)
}
