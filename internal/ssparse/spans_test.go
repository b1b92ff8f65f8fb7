package ssparse

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

const spansStream = `{"schema":"supersim-spans","version":2,"sample":0.5}
{"msg":1,"app":0,"src":0,"dst":5,"hops":2,"t0":100,"e2e":20,"queue":5,"eject":1,"perhop":[{"wire":2},{"vc":1,"sw":1,"xbar":2,"wire":4},{"xbar":2,"out":1,"wire":1}]}
{"msg":3,"app":0,"src":1,"dst":6,"hops":2,"t0":110,"e2e":30,"queue":9,"eject":3,"perhop":[{"wire":2},{"vc":3,"sw":1,"xbar":2,"wire":4},{"xbar":2,"out":3,"wire":1}]}
{"msg":4,"app":1,"src":2,"dst":7,"hops":1,"t0":120,"e2e":12,"queue":2,"eject":2,"perhop":[{"wire":2},{"vc":1,"xbar":2,"wire":3}]}
`

func TestDistStatistics(t *testing.T) {
	var d Dist
	if d.Count() != 0 || d.Mean() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty Dist must answer zeros")
	}
	for _, v := range []uint64{4, 2, 8, 6} {
		d.Observe(v)
	}
	if d.Count() != 4 || d.Sum() != 20 || d.Mean() != 5 {
		t.Fatalf("count %d sum %d mean %g", d.Count(), d.Sum(), d.Mean())
	}
	if p := d.Percentile(0); p != 2 {
		t.Fatalf("p0 = %d, want 2", p)
	}
	if p := d.Percentile(50); p != 4 {
		t.Fatalf("p50 = %d, want 4 (floor rank)", p)
	}
	if p := d.Percentile(100); p != 8 {
		t.Fatalf("p100 = %d, want 8", p)
	}
	d.Observe(100) // observing after a percentile query must re-sort
	if p := d.Percentile(100); p != 100 {
		t.Fatalf("p100 after new observation = %d, want 100", p)
	}
}

func TestLoadSpansAggregates(t *testing.T) {
	agg, err := LoadSpans(strings.NewReader(spansStream))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Records != 3 || agg.Header.Sample != 0.5 {
		t.Fatalf("records %d sample %g", agg.Records, agg.Header.Sample)
	}
	if len(agg.Apps) != 2 {
		t.Fatalf("apps = %d, want 2", len(agg.Apps))
	}
	a0 := agg.Apps[0]
	if a0.E2E.Count() != 2 || a0.E2E.Mean() != 25 {
		t.Fatalf("app 0 e2e count %d mean %g", a0.E2E.Count(), a0.E2E.Mean())
	}
	if a0.Queue.Sum() != 14 || a0.Eject.Sum() != 4 {
		t.Fatalf("app 0 queue %d eject %d", a0.Queue.Sum(), a0.Eject.Sum())
	}
	if len(a0.Hops) != 3 {
		t.Fatalf("app 0 has %d hop positions, want 3", len(a0.Hops))
	}
	// Hop 0 is the source interface: only the wire is observed.
	if a0.Hops[0].Wire.Sum() != 4 || a0.Hops[0].VCAlloc.Count() != 0 {
		t.Fatalf("hop 0: wire %d vc count %d", a0.Hops[0].Wire.Sum(), a0.Hops[0].VCAlloc.Count())
	}
	if a0.Hops[1].VCAlloc.Sum() != 4 || a0.Hops[1].SWAlloc.Sum() != 2 || a0.Hops[2].Output.Sum() != 4 {
		t.Fatalf("hop sums wrong: %+v", a0.Hops)
	}
	a1 := agg.Apps[1]
	if a1.E2E.Count() != 1 || len(a1.Hops) != 2 {
		t.Fatalf("app 1: %d spans, %d hops", a1.E2E.Count(), len(a1.Hops))
	}
}

func TestLoadSpansRejectsInexactRecord(t *testing.T) {
	bad := `{"schema":"supersim-spans","version":2,"sample":1}
{"msg":9,"app":0,"src":0,"dst":1,"hops":1,"e2e":99,"queue":5,"eject":1,"perhop":[{"wire":2},{"wire":4}]}
`
	if _, err := LoadSpans(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "not exact") {
		t.Fatalf("inexact record accepted: %v", err)
	}
}

func TestLoadSpansRejectsWrongSchema(t *testing.T) {
	if _, err := LoadSpans(strings.NewReader(`{"schema":"other","version":1}` + "\n")); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestWriteTable(t *testing.T) {
	agg, err := LoadSpans(strings.NewReader(spansStream))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agg.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"3 records at sample fraction 0.5",
		"app 0: e2e mean=25.0",
		"app 1: e2e mean=12.0",
		"queue mean=7.0",
		"src",
		"vc_alloc",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSpansCSV(t *testing.T) {
	agg, err := LoadSpans(strings.NewReader(spansStream))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agg.WriteSpansCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "app,hop,component,count,mean,p50,p99" {
		t.Fatalf("header = %q", lines[0])
	}
	for _, want := range []string{
		"0,src,queue,2,7,5,5",
		"0,src,wire,2,2,2,2",
		"0,1,vc_alloc,2,2,1,1",
		"0,2,output,2,2,1,1",
		"0,dst,eject,2,2,1,1",
		"0,all,e2e,2,25,20,20",
		"1,all,e2e,1,12,12,12",
	} {
		found := false
		for _, l := range lines {
			if l == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("CSV missing row %q:\n%s", want, buf.String())
		}
	}
	// Hop 0 must emit only queue and wire rows, no pipeline stages.
	for _, l := range lines {
		if strings.HasPrefix(l, "0,src,") &&
			!strings.HasPrefix(l, "0,src,queue,") && !strings.HasPrefix(l, "0,src,wire,") {
			t.Errorf("unexpected source-hop row %q", l)
		}
	}
}

// FuzzLoadSpans feeds arbitrary bytes to the spans-stream reader behind
// `ssparse -spans` and `ssplot -plot breakdown`: a spans file is outside
// input, so it must load or fail with an error, never panic, and what loads
// must render, as reports and as a Chrome timeline. Seeds are the committed
// stream, a truncation of it and its first lines, headers of the wrong schema
// and of version 1, and a record with a very long perhop.
func FuzzLoadSpans(f *testing.F) {
	fixture, err := os.ReadFile("../../cmd/ssparse/testdata/spans.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(fixture[:len(fixture)/2])
	f.Add(fixture[:bytes.LastIndexByte(fixture[:4096], '\n')+1])
	f.Add([]byte(spansStream))
	f.Add([]byte(`{"schema":"supersim-tasks","version":1}` + "\n"))
	f.Add([]byte(`{"schema":"supersim-spans","version":1,"sample":1}` + "\n"))
	long := `{"schema":"supersim-spans","version":2,"sample":1}` + "\n" +
		`{"msg":1,"app":7,"hops":4000,"t0":9,"e2e":4001,"perhop":[` + strings.Repeat(`{"wire":1},`, 4000) + `{"wire":1}]}` + "\n"
	f.Add([]byte(long))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		agg, err := LoadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := agg.WriteTable(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := agg.WriteSpansCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteChrome(io.Discard, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
}
