package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeLog(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "run.log")
	var b strings.Builder
	for i := 0; i < 50; i++ {
		end := 200 + i*7
		b.WriteString("M ")
		b.WriteString(strings.Join([]string{
			itoa(i), "0", "1", "2", "100", itoa(end), "1", "3", "0"}, " "))
		b.WriteString("\n")
	}
	if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var d []byte
	for v > 0 {
		d = append([]byte{byte('0' + v%10)}, d...)
		v /= 10
	}
	return string(d)
}

func TestRunAllPlotKinds(t *testing.T) {
	p := writeLog(t)
	for _, kind := range []string{"percentile", "cdf", "pdf", "timeseries"} {
		if err := run(kind, "", 0, 40, 10, []string{p}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestRunWithCSVAndFilter(t *testing.T) {
	p := writeLog(t)
	csv := filepath.Join(t.TempDir(), "o.csv")
	if err := run("cdf", csv, 0, 40, 10, []string{p, "+send=100"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty csv")
	}
}

func TestRunErrors(t *testing.T) {
	p := writeLog(t)
	inverted := filepath.Join(t.TempDir(), "inverted.log")
	if err := os.WriteFile(inverted, []byte("M 0 0 1 2 100 50 1 1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kind string
		args []string
	}{
		{"percentile", nil},                // no file
		{"bogus", []string{p}},             // unknown kind
		{"cdf", []string{p, "+bad"}},       // bad filter
		{"cdf", []string{p, p}},            // two files
		{"cdf", []string{p, "+app=9"}},     // empty after filters
		{"cdf", []string{"/no/such/file"}}, // missing file
		{"cdf", []string{inverted}},        // received before sent: an error, not Record's panic
	}
	for _, c := range cases {
		if err := run(c.kind, "", 0, 40, 10, c.args); err == nil {
			t.Errorf("run(%s, %v) should fail", c.kind, c.args)
		}
	}
}
