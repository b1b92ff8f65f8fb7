package ssparse

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"supersim/internal/telemetry"
)

// chromeStream is three hand-written records: an IQ-shaped path (no output
// stage), a path with a non-zero output stage, and a path with zero-length
// queue, sw_alloc and eject stages.
const chromeStream = `{"schema":"supersim-spans","version":2,"sample":1}
{"msg":1,"app":0,"src":3,"dst":5,"hops":2,"t0":100,"e2e":17,"queue":2,"eject":2,"perhop":[{"wire":1},{"vc":1,"sw":1,"xbar":2,"wire":3},{"vc":1,"sw":1,"xbar":2,"wire":1}]}
{"msg":2,"app":1,"src":0,"dst":4,"hops":1,"t0":105,"e2e":16,"queue":1,"eject":3,"perhop":[{"wire":1},{"vc":2,"sw":1,"xbar":1,"out":4,"wire":3}]}
{"msg":3,"app":0,"src":3,"dst":6,"hops":1,"t0":107,"e2e":5,"queue":0,"eject":0,"perhop":[{"wire":1},{"vc":1,"xbar":2,"wire":1}]}
`

// TestWriteChromeGolden pins the rendering of chromeStream: one outer "msg"
// slice per record from t0 to t0+e2e, the non-zero stages nested in pipeline
// order and back to back, zero-length stages left out.
func TestWriteChromeGolden(t *testing.T) {
	const want = `{"displayTimeUnit":"ns","traceEvents":[
{"ph":"b","cat":"msg","name":"msg","id":1,"pid":0,"tid":3,"ts":100},
{"ph":"b","cat":"msg","name":"queue","id":1,"pid":0,"tid":3,"ts":100},
{"ph":"e","cat":"msg","name":"queue","id":1,"pid":0,"tid":3,"ts":102},
{"ph":"b","cat":"msg","name":"h0 wire","id":1,"pid":0,"tid":3,"ts":102},
{"ph":"e","cat":"msg","name":"h0 wire","id":1,"pid":0,"tid":3,"ts":103},
{"ph":"b","cat":"msg","name":"h1 vc_alloc","id":1,"pid":0,"tid":3,"ts":103},
{"ph":"e","cat":"msg","name":"h1 vc_alloc","id":1,"pid":0,"tid":3,"ts":104},
{"ph":"b","cat":"msg","name":"h1 sw_alloc","id":1,"pid":0,"tid":3,"ts":104},
{"ph":"e","cat":"msg","name":"h1 sw_alloc","id":1,"pid":0,"tid":3,"ts":105},
{"ph":"b","cat":"msg","name":"h1 xbar","id":1,"pid":0,"tid":3,"ts":105},
{"ph":"e","cat":"msg","name":"h1 xbar","id":1,"pid":0,"tid":3,"ts":107},
{"ph":"b","cat":"msg","name":"h1 wire","id":1,"pid":0,"tid":3,"ts":107},
{"ph":"e","cat":"msg","name":"h1 wire","id":1,"pid":0,"tid":3,"ts":110},
{"ph":"b","cat":"msg","name":"h2 vc_alloc","id":1,"pid":0,"tid":3,"ts":110},
{"ph":"e","cat":"msg","name":"h2 vc_alloc","id":1,"pid":0,"tid":3,"ts":111},
{"ph":"b","cat":"msg","name":"h2 sw_alloc","id":1,"pid":0,"tid":3,"ts":111},
{"ph":"e","cat":"msg","name":"h2 sw_alloc","id":1,"pid":0,"tid":3,"ts":112},
{"ph":"b","cat":"msg","name":"h2 xbar","id":1,"pid":0,"tid":3,"ts":112},
{"ph":"e","cat":"msg","name":"h2 xbar","id":1,"pid":0,"tid":3,"ts":114},
{"ph":"b","cat":"msg","name":"h2 wire","id":1,"pid":0,"tid":3,"ts":114},
{"ph":"e","cat":"msg","name":"h2 wire","id":1,"pid":0,"tid":3,"ts":115},
{"ph":"b","cat":"msg","name":"eject","id":1,"pid":0,"tid":3,"ts":115},
{"ph":"e","cat":"msg","name":"eject","id":1,"pid":0,"tid":3,"ts":117},
{"ph":"e","cat":"msg","name":"msg","id":1,"pid":0,"tid":3,"ts":117},
{"ph":"b","cat":"msg","name":"msg","id":2,"pid":1,"tid":0,"ts":105},
{"ph":"b","cat":"msg","name":"queue","id":2,"pid":1,"tid":0,"ts":105},
{"ph":"e","cat":"msg","name":"queue","id":2,"pid":1,"tid":0,"ts":106},
{"ph":"b","cat":"msg","name":"h0 wire","id":2,"pid":1,"tid":0,"ts":106},
{"ph":"e","cat":"msg","name":"h0 wire","id":2,"pid":1,"tid":0,"ts":107},
{"ph":"b","cat":"msg","name":"h1 vc_alloc","id":2,"pid":1,"tid":0,"ts":107},
{"ph":"e","cat":"msg","name":"h1 vc_alloc","id":2,"pid":1,"tid":0,"ts":109},
{"ph":"b","cat":"msg","name":"h1 sw_alloc","id":2,"pid":1,"tid":0,"ts":109},
{"ph":"e","cat":"msg","name":"h1 sw_alloc","id":2,"pid":1,"tid":0,"ts":110},
{"ph":"b","cat":"msg","name":"h1 xbar","id":2,"pid":1,"tid":0,"ts":110},
{"ph":"e","cat":"msg","name":"h1 xbar","id":2,"pid":1,"tid":0,"ts":111},
{"ph":"b","cat":"msg","name":"h1 output","id":2,"pid":1,"tid":0,"ts":111},
{"ph":"e","cat":"msg","name":"h1 output","id":2,"pid":1,"tid":0,"ts":115},
{"ph":"b","cat":"msg","name":"h1 wire","id":2,"pid":1,"tid":0,"ts":115},
{"ph":"e","cat":"msg","name":"h1 wire","id":2,"pid":1,"tid":0,"ts":118},
{"ph":"b","cat":"msg","name":"eject","id":2,"pid":1,"tid":0,"ts":118},
{"ph":"e","cat":"msg","name":"eject","id":2,"pid":1,"tid":0,"ts":121},
{"ph":"e","cat":"msg","name":"msg","id":2,"pid":1,"tid":0,"ts":121},
{"ph":"b","cat":"msg","name":"msg","id":3,"pid":0,"tid":3,"ts":107},
{"ph":"b","cat":"msg","name":"h0 wire","id":3,"pid":0,"tid":3,"ts":107},
{"ph":"e","cat":"msg","name":"h0 wire","id":3,"pid":0,"tid":3,"ts":108},
{"ph":"b","cat":"msg","name":"h1 vc_alloc","id":3,"pid":0,"tid":3,"ts":108},
{"ph":"e","cat":"msg","name":"h1 vc_alloc","id":3,"pid":0,"tid":3,"ts":109},
{"ph":"b","cat":"msg","name":"h1 xbar","id":3,"pid":0,"tid":3,"ts":109},
{"ph":"e","cat":"msg","name":"h1 xbar","id":3,"pid":0,"tid":3,"ts":111},
{"ph":"b","cat":"msg","name":"h1 wire","id":3,"pid":0,"tid":3,"ts":111},
{"ph":"e","cat":"msg","name":"h1 wire","id":3,"pid":0,"tid":3,"ts":112},
{"ph":"e","cat":"msg","name":"msg","id":3,"pid":0,"tid":3,"ts":112}
]}
`
	var buf bytes.Buffer
	n, err := WriteChrome(&buf, strings.NewReader(chromeStream))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("rendered %d messages, want 3", n)
	}
	if got := buf.String(); got != want {
		t.Fatalf("rendering differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteChromeRejectsBadStreams(t *testing.T) {
	for name, in := range map[string]string{
		"version 1": `{"schema":"supersim-spans","version":1,"sample":1}` + "\n",
		"inexact": `{"schema":"supersim-spans","version":2,"sample":1}` + "\n" +
			`{"msg":9,"app":0,"src":0,"dst":1,"hops":1,"t0":3,"e2e":99,"queue":5,"eject":1,"perhop":[{"wire":2},{"wire":4}]}` + "\n",
		"no header": "",
	} {
		if _, err := WriteChrome(&bytes.Buffer{}, strings.NewReader(in)); err == nil {
			t.Errorf("%s: rendered without an error", name)
		}
	}
}

// chromeEvent is one rendered trace event.
type chromeEvent struct {
	Ph, Cat, Name string
	ID            uint64
	Pid, Tid      int
	Ts            uint64
}

// TestWriteChromeTilesEveryRecord renders the committed worked-example stream
// and checks the timeline against the records: valid JSON, balanced begin and
// end events, each message's outer slice exactly [t0, t0+e2e] on its app and
// source terminal, and its stage slices contiguous, inside the outer slice and
// summing to e2e. Rendering twice gives the same bytes.
func TestWriteChromeTilesEveryRecord(t *testing.T) {
	stream, err := os.ReadFile("../../cmd/ssparse/testdata/spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var recs []telemetry.SpanRecord
	if _, err := telemetry.ReadSpans(bytes.NewReader(stream), func(r telemetry.SpanRecord) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var out, again bytes.Buffer
	n, err := WriteChrome(&out, bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) || n < 1000 {
		t.Fatalf("rendered %d messages of %d records", n, len(recs))
	}
	if _, err := WriteChrome(&again, bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatal("two renders of one stream differ")
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	evs := doc.TraceEvents
	begins, ends := 0, 0
	for _, e := range evs {
		switch e.Ph {
		case "b":
			begins++
		case "e":
			ends++
		default:
			t.Fatalf("event phase %q", e.Ph)
		}
	}
	if begins != ends {
		t.Fatalf("%d begin events, %d end events", begins, ends)
	}
	// Each record's events are contiguous: the outer begin, a begin/end pair
	// per stage, the outer end.
	i := 0
	for _, r := range recs {
		if i >= len(evs) {
			t.Fatalf("timeline ends before message %d", r.Msg)
		}
		outer := evs[i]
		if outer.Ph != "b" || outer.Name != "msg" || outer.Cat != "msg" || outer.ID != r.Msg ||
			outer.Pid != r.App || outer.Tid != r.Src || outer.Ts != r.T0 {
			t.Fatalf("message %d (t0 %d): outer begin %+v", r.Msg, r.T0, outer)
		}
		i++
		at, sum := r.T0, uint64(0)
		for ; i < len(evs) && evs[i].Name != "msg"; i += 2 {
			b, e := evs[i], evs[i+1]
			if b.Ph != "b" || e.Ph != "e" || b.Name != e.Name || b.ID != r.Msg || e.ID != r.Msg {
				t.Fatalf("message %d: stage events %+v, %+v", r.Msg, b, e)
			}
			if b.Ts != at || e.Ts <= b.Ts {
				t.Fatalf("message %d: stage %s [%d, %d] does not continue at %d", r.Msg, b.Name, b.Ts, e.Ts, at)
			}
			at, sum = e.Ts, sum+e.Ts-b.Ts
		}
		end := evs[i]
		if end.Ph != "e" || end.ID != r.Msg || end.Ts != r.T0+r.E2E {
			t.Fatalf("message %d (t0 %d, e2e %d): outer end %+v", r.Msg, r.T0, r.E2E, end)
		}
		if at != end.Ts || sum != r.E2E {
			t.Fatalf("message %d: stages end at %d and sum to %d, outer slice ends at %d, e2e %d",
				r.Msg, at, sum, end.Ts, r.E2E)
		}
		i++
	}
	if i != len(evs) {
		t.Fatalf("%d events after the last message", len(evs)-i)
	}
}
