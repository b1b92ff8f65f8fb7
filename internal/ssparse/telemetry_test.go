package ssparse

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"supersim/internal/telemetry"
)

const telemetryStream = `{"t":500,"comp":"ch_a","metric":"chan_flits","kind":"counter","vc":-1,"v":36,"d":36,"u":0.144}
{"t":500,"comp":"ch_b","metric":"chan_flits","kind":"counter","vc":-1}
{"t":500,"comp":"r0","metric":"vc_occupancy","kind":"gauge","vc":0,"v":3,"d":3}
{"t":500,"comp":"app0","metric":"msg_latency","kind":"hist","vc":-1,"v":10,"d":10,"m":31.5}
{"t":1000,"comp":"ch_a","metric":"chan_flits","kind":"counter","vc":-1,"v":80,"d":44,"u":0.176}
{"t":1000,"comp":"r0","metric":"vc_occupancy","kind":"gauge","vc":1,"v":2,"d":2}
`

func loadFiltered(t *testing.T, exprs ...string) []telemetry.Record {
	t.Helper()
	var filters []TelemetryFilter
	for _, e := range exprs {
		f, err := ParseTelemetryFilter(e)
		if err != nil {
			t.Fatal(err)
		}
		filters = append(filters, f)
	}
	recs, err := LoadTelemetry(strings.NewReader(telemetryStream), filters)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestTelemetryFilters(t *testing.T) {
	cases := []struct {
		exprs []string
		want  int
	}{
		{nil, 6},
		{[]string{"+comp=ch_"}, 3},
		{[]string{"+comp=ch_a"}, 2},
		{[]string{"+metric=vc_occupancy"}, 2},
		{[]string{"+kind=hist"}, 1},
		{[]string{"+vc=1"}, 1},
		{[]string{"+t=1000-2000"}, 2},
		{[]string{"+comp=ch_", "+t=500-500"}, 2}, // filters AND
	}
	for _, c := range cases {
		if got := len(loadFiltered(t, c.exprs...)); got != c.want {
			t.Errorf("filters %v matched %d records, want %d", c.exprs, got, c.want)
		}
	}
}

func TestTelemetryFilterErrors(t *testing.T) {
	for _, expr := range []string{"comp=x", "+comp", "+bogus=1", "+vc=abc", "+t=zz"} {
		if _, err := ParseTelemetryFilter(expr); err == nil {
			t.Errorf("ParseTelemetryFilter(%q) accepted invalid filter", expr)
		}
	}
}

func TestWriteTelemetryCSV(t *testing.T) {
	recs := loadFiltered(t, "+comp=ch_a")
	var b strings.Builder
	if err := WriteTelemetryCSV(&b, recs); err != nil {
		t.Fatal(err)
	}
	want := "t,comp,metric,kind,vc,value,delta,rate,mean\n" +
		"500,ch_a,chan_flits,counter,-1,36,36,0.144,0\n" +
		"1000,ch_a,chan_flits,counter,-1,80,44,0.176,0\n"
	if b.String() != want {
		t.Fatalf("CSV output:\n%s\nwant:\n%s", b.String(), want)
	}
}

// FuzzLoadTelemetry feeds arbitrary bytes to the telemetry-stream reader
// behind `ssparse -telemetry` and ssplot's telemetry plots: it must load or
// fail with an error, never panic, and what loads must render. Seeds are the
// committed stream, a truncation of it, a header of another schema (the
// stream has none) and a record with a very long component name.
func FuzzLoadTelemetry(f *testing.F) {
	fixture, err := os.ReadFile("../../cmd/ssparse/testdata/telemetry.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(fixture[:len(fixture)/2])
	f.Add([]byte(`{"schema":"supersim-spans","version":1,"sample":1}` + "\n"))
	f.Add([]byte(`{"t":500,"comp":"` + strings.Repeat("r", 4000) + `","metric":"m","kind":"hist","vc":-1,"v":1e308,"m":-1}` + "\n"))
	f.Add([]byte{})
	filter, err := ParseTelemetryFilter("+t=0-1000")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, filters := range [][]TelemetryFilter{nil, {filter}} {
			recs, err := LoadTelemetry(bytes.NewReader(data), filters)
			if err != nil {
				return
			}
			if err := WriteTelemetryCSV(io.Discard, recs); err != nil {
				t.Fatal(err)
			}
		}
	})
}
