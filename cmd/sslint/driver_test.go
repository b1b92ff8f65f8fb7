package main

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/lint"
)

// runDriver invokes the driver in-process.
func runDriver(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestDirtyText(t *testing.T) {
	code, out, errOut := runDriver(t, "testdata/dirty")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	// Two findings: the unserialized field and the unused allow, rendered with
	// module-root-relative paths.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "cmd/sslint/testdata/dirty/dirty.go:") ||
		!strings.Contains(lines[0], "field counter.lost is mutated") ||
		!strings.HasSuffix(lines[0], "[snapshotcomplete]") {
		t.Errorf("unexpected first finding: %q", lines[0])
	}
	if !strings.Contains(lines[1], "suppresses nothing") ||
		!strings.HasSuffix(lines[1], "[directive]") {
		t.Errorf("unexpected second finding: %q", lines[1])
	}
	if !strings.Contains(errOut, "2 findings") {
		t.Errorf("stderr = %q, want finding count", errOut)
	}
}

func TestClean(t *testing.T) {
	code, out, _ := runDriver(t, "testdata/clean")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("exit code = %d (want 0), output %q", code, out)
	}
}

func TestListRules(t *testing.T) {
	code, out, _ := runDriver(t, "-list-rules")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	want := []string{"determinism", "shardsafety", "snapshotcomplete", lint.RuleDirective}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, name := range want {
		if !strings.HasPrefix(lines[i], name) {
			t.Errorf("line %d = %q, want rule %q first", i, lines[i], name)
		}
		if doc := lint.RuleDoc(name); !strings.Contains(lines[i], doc) {
			t.Errorf("line %d lacks the doc for %q", i, name)
		}
	}
}

func TestNoPackages(t *testing.T) {
	if code, _, _ := runDriver(t); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestPatternTargets resolves targets through go list, as `sslint ./...`
// does: an import path finds the same findings as its directory, and a
// pattern go list rejects is a driver failure.
func TestPatternTargets(t *testing.T) {
	_, byDir, _ := runDriver(t, "testdata/dirty")
	code, byPath, errOut := runDriver(t, "supersim/cmd/sslint/testdata/dirty")
	if code != 1 || byPath != byDir {
		t.Fatalf("exit code = %d (want 1), output %q (want %q)\nstderr:\n%s", code, byPath, byDir, errOut)
	}
	code, _, errOut = runDriver(t, "supersim/cmd/sslint/testdata/nosuch")
	if code != 2 || !strings.Contains(errOut, "go list") {
		t.Fatalf("exit code = %d (want 2), stderr %q", code, errOut)
	}
}
