package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Golden tests for the -spans latency-decomposition mode, against a committed
// stream from the OBSERVABILITY.md worked example: a congested tornado on a
// 4x4 torus (testdata/spans_example.json). The stream is also the spans input
// of cmd/ssplot's tests and internal/ssparse's property test and fuzz seeds.
// Regenerate it from the repository root with
//
//	go run ./cmd/supersim -quiet -spans cmd/ssparse/testdata/spans.jsonl \
//	    -spans-sample 0.25 cmd/ssparse/testdata/spans_example.json
//
// and then the goldens of both tools with
//
//	SUPERSIM_UPDATE_GOLDEN=1 go test ./cmd/ssparse ./cmd/ssplot

func TestGoldenSpansStdout(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-spans", filepath.Join("testdata", "spans.jsonl")})
	})
	checkGolden(t, filepath.Join("testdata", "golden_spans_stdout.txt"), out)
}

func TestGoldenSpansCSV(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "spans.csv")
	captureStdout(t, func() error {
		return run([]string{"-spans", filepath.Join("testdata", "spans.jsonl"), "-csv", csv})
	})
	got, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_spans.csv"), got)
}

func TestSpansRejectsFilters(t *testing.T) {
	if err := run([]string{"-spans", filepath.Join("testdata", "spans.jsonl"), "+app=0"}); err == nil {
		t.Fatal("-spans with +filters did not error")
	}
}

func TestSpansTelemetryExclusive(t *testing.T) {
	if err := run([]string{"-spans", "-telemetry", filepath.Join("testdata", "spans.jsonl")}); err == nil {
		t.Fatal("-spans with -telemetry did not error")
	}
}

func TestSpansRejectsWrongStream(t *testing.T) {
	// A telemetry snapshot stream is not a spans stream: the header check
	// must reject it rather than misparse.
	if err := run([]string{"-spans", filepath.Join("testdata", "telemetry.jsonl")}); err == nil {
		t.Fatal("telemetry stream accepted as spans stream")
	}
}

// TestSpansChrome renders the committed stream as a timeline: a valid JSON
// document with one outer slice per record (the layout itself is tested in
// internal/ssparse).
func TestSpansChrome(t *testing.T) {
	out := filepath.Join(t.TempDir(), "timeline.json")
	stdout := captureStdout(t, func() error {
		return run([]string{"-spans", filepath.Join("testdata", "spans.jsonl"), "-chrome", out})
	})
	if !strings.Contains(string(stdout), "wrote Chrome trace of ") {
		t.Fatalf("stdout %q", stdout)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Ph, Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	msgs := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "b" && e.Name == "msg" {
			msgs++
		}
	}
	if want := "wrote Chrome trace of " + strconv.Itoa(msgs) + " messages"; !strings.Contains(string(stdout), want) {
		t.Fatalf("stdout %q, want %q", stdout, want)
	}
}

func TestChromeArgumentErrors(t *testing.T) {
	dir := t.TempDir()
	spans := filepath.Join("testdata", "spans.jsonl")
	for name, args := range map[string][]string{
		"without -spans":  {spans, "-chrome", filepath.Join(dir, "a.json")},
		"with -csv":       {"-spans", spans, "-chrome", filepath.Join(dir, "b.json"), "-csv", filepath.Join(dir, "b.csv")},
		"missing file":    {"-spans", spans, "-chrome"},
		"unwritable file": {"-spans", spans, "-chrome", filepath.Join(dir, "no", "such", "dir.json")},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestChromeRemovesFailedRender: a stream that fails to read (here a
// telemetry stream, not spans) leaves no half-written timeline behind.
func TestChromeRemovesFailedRender(t *testing.T) {
	out := filepath.Join(t.TempDir(), "timeline.json")
	if err := run([]string{"-spans", filepath.Join("testdata", "telemetry.jsonl"), "-chrome", out}); err == nil {
		t.Fatal("telemetry stream rendered as spans")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("failed render left %s behind: %v", out, err)
	}
}
