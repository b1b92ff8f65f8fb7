package ssparse

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"supersim/internal/stats"
)

func fixture() []stats.Sample {
	return []stats.Sample{
		{App: 0, Src: 1, Dst: 2, Start: 100, End: 250, Flits: 1, Hops: 3},
		{App: 0, Src: 2, Dst: 3, Start: 600, End: 900, Flits: 4, Hops: 5, NonMinimal: true},
		{App: 1, Src: 3, Dst: 1, Start: 700, End: 1500, Flits: 2, Hops: 2},
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Apply(fixture(), nil)); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := fixture()
	if len(got) != len(want) {
		t.Fatalf("got %d samples", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nM 0 0 1 2 10 20 1 2 0\n"
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Start != 10 {
		t.Fatalf("got %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"X 1 2 3\n",                      // unknown record
		"M 0 0 1 2 10 20 1 2\n",          // short line
		"M 0 0 1 2 10 twenty 1 2 0\n",    // bad number
		"M 0 0 1 2 10 20 1 2 0 extras\n", // long line
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// A line that parses but that a recorder could not hold is an error naming
// the line, not a panic in Apply.
func TestParseRejectsUnrecordableSamples(t *testing.T) {
	for _, bad := range []string{
		"M 0 0 1 2 100 50 1 1 0\n",            // received before it was sent
		"M 0 0 1 2 10 20 1099511627776 1 0\n", // 2^40 flits
		"M 0 0 1 2 10 20 1 65536 0\n",         // hops
		"M 0 256 1 2 10 20 1 1 0\n",           // app
		"M 0 0 1 18446744073709551615 10 20 1 1 0\n",
	} {
		_, err := Parse(strings.NewReader("# header\n" + bad))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("Parse(%q) = %v, want an error naming line 2", bad, err)
		}
	}
}

// FuzzParse: whatever Parse accepts, Apply records and Write prints back to
// the same samples.
func FuzzParse(f *testing.F) {
	f.Add("M 0 0 1 2 10 20 1 2 0\n")
	f.Add("M 0 0 1 2 100 50 1 1 0\n")
	f.Add("M 0 0 1 2 10 20 1099511627776 1 0\n")
	f.Fuzz(func(t *testing.T, log string) {
		samples, err := Parse(strings.NewReader(log))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, Apply(samples, nil)); err != nil {
			t.Fatal(err)
		}
		again, err := Parse(&buf)
		if err != nil || !slices.Equal(again, samples) {
			t.Fatalf("log %q: wrote %q, read back %+v, %v; want %+v", log, buf.String(), again, err, samples)
		}
	})
}

func TestFilterApp(t *testing.T) {
	f, err := ParseFilter("+app=0")
	if err != nil {
		t.Fatal(err)
	}
	rec := Apply(fixture(), []Filter{f})
	if rec.Count() != 2 {
		t.Fatalf("app=0 kept %d", rec.Count())
	}
}

func TestFilterSendRange(t *testing.T) {
	f, err := ParseFilter("+send=500-1000")
	if err != nil {
		t.Fatal(err)
	}
	rec := Apply(fixture(), []Filter{f})
	if rec.Count() != 2 {
		t.Fatalf("send range kept %d", rec.Count())
	}
}

func TestFilterCombination(t *testing.T) {
	f1, _ := ParseFilter("+send=500-1000")
	f2, _ := ParseFilter("+app=1")
	rec := Apply(fixture(), []Filter{f1, f2})
	if rec.Count() != 1 {
		t.Fatalf("combined filters kept %d", rec.Count())
	}
	if rec.At(0).Src != 3 {
		t.Fatal("wrong survivor")
	}
}

func TestFilterFields(t *testing.T) {
	cases := map[string]int{
		"+src=2":     1,
		"+dst=1":     1,
		"+recv=900":  1,
		"+hops=2-3":  2,
		"+nonmin=1":  1,
		"+nonmin=0":  2,
		"+app=0-1":   3,
		"+send=9999": 0,
	}
	for expr, want := range cases {
		f, err := ParseFilter(expr)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if got := Apply(fixture(), []Filter{f}).Count(); got != want {
			t.Errorf("%s kept %d, want %d", expr, got, want)
		}
	}
}

func TestFilterParseErrors(t *testing.T) {
	for _, bad := range []string{
		"app=0",     // missing +
		"+app",      // missing =
		"+bogus=1",  // unknown field
		"+app=x",    // bad number
		"+send=9-1", // inverted range
		"+send=1-x", // bad range end
		"+send=x-2", // bad range start
	} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q) should fail", bad)
		}
	}
}

func TestApplyYieldsRecorderStats(t *testing.T) {
	rec := Apply(fixture(), nil)
	if rec.Count() != 3 {
		t.Fatal("no-filter apply should keep everything")
	}
	if rec.Mean() <= 0 {
		t.Fatal("recorder stats unusable")
	}
}
