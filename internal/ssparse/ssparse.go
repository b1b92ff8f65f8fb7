// Package ssparse implements the transaction log format and its parsing
// engine. During the sampling window a simulation logs network transaction
// information; ssparse reads that format back, applies user filters, and
// produces latency information for plotting and analysis — mirroring the
// SSParse tool of the original ecosystem.
//
// The log is line oriented: one "M" record per sampled message:
//
//	M <index> <app> <src> <dst> <start> <end> <flits> <hops> <nonmin>
//
// Filters use the +field=value syntax, for example "+app=0" keeps only
// application 0's traffic and "+send=500-1000" keeps messages sent in
// [500, 1000]. Multiple filters are ANDed.
package ssparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"supersim/internal/sim"
	"supersim/internal/stats"
)

// Write emits the transaction log for a recorder's samples.
func Write(w io.Writer, rec *stats.Recorder) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < rec.Count(); i++ {
		s := rec.At(i)
		nonmin := 0
		if s.NonMinimal {
			nonmin = 1
		}
		if _, err := fmt.Fprintf(bw, "M %d %d %d %d %d %d %d %d %d\n",
			i, s.App, s.Src, s.Dst, s.Start, s.End, s.Flits, s.Hops, nonmin); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads a transaction log back into samples. Every sample it returns
// passes stats.Sample.Check, so Apply can record it.
func Parse(r io.Reader) ([]stats.Sample, error) {
	var out []stats.Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] != "M" {
			return nil, fmt.Errorf("ssparse: line %d: unknown record %q", lineNo, fields[0])
		}
		if len(fields) != 10 {
			return nil, fmt.Errorf("ssparse: line %d: want 10 fields, got %d", lineNo, len(fields))
		}
		n := make([]uint64, 9)
		for i := 1; i < 10; i++ {
			v, err := strconv.ParseUint(fields[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("ssparse: line %d field %d: %v", lineNo, i, err)
			}
			n[i-1] = v
		}
		s := stats.Sample{
			App: int(n[1]), Src: int(n[2]), Dst: int(n[3]),
			Start: sim.Tick(n[4]), End: sim.Tick(n[5]),
			Flits: int(n[6]), Hops: int(n[7]), NonMinimal: n[8] != 0,
		}
		if err := s.Check(); err != nil {
			return nil, fmt.Errorf("ssparse: line %d: %v", lineNo, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// Filter is one predicate over samples.
type Filter func(s stats.Sample) bool

// ParseFilter compiles a "+field=value" filter expression. Supported fields:
// app, src, dst, send (start time), recv (end time), hops, nonmin. Numeric
// fields accept a single value or an inclusive lo-hi range.
func ParseFilter(expr string) (Filter, error) {
	body, ok := strings.CutPrefix(expr, "+")
	if !ok {
		return nil, fmt.Errorf("ssparse: filter %q must start with '+'", expr)
	}
	field, val, ok := strings.Cut(body, "=")
	if !ok {
		return nil, fmt.Errorf("ssparse: filter %q must contain '='", expr)
	}
	lo, hi, err := parseRange(val)
	if err != nil {
		return nil, fmt.Errorf("ssparse: filter %q: %v", expr, err)
	}
	pick := func(get func(stats.Sample) uint64) Filter {
		return func(s stats.Sample) bool {
			v := get(s)
			return v >= lo && v <= hi
		}
	}
	switch field {
	case "app":
		return pick(func(s stats.Sample) uint64 { return uint64(s.App) }), nil
	case "src":
		return pick(func(s stats.Sample) uint64 { return uint64(s.Src) }), nil
	case "dst":
		return pick(func(s stats.Sample) uint64 { return uint64(s.Dst) }), nil
	case "send":
		return pick(func(s stats.Sample) uint64 { return uint64(s.Start) }), nil
	case "recv":
		return pick(func(s stats.Sample) uint64 { return uint64(s.End) }), nil
	case "hops":
		return pick(func(s stats.Sample) uint64 { return uint64(s.Hops) }), nil
	case "nonmin":
		return pick(func(s stats.Sample) uint64 {
			if s.NonMinimal {
				return 1
			}
			return 0
		}), nil
	default:
		return nil, fmt.Errorf("ssparse: unknown filter field %q", field)
	}
}

func parseRange(val string) (lo, hi uint64, err error) {
	if a, b, ok := strings.Cut(val, "-"); ok {
		lo, err = strconv.ParseUint(a, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		hi, err = strconv.ParseUint(b, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if hi < lo {
			return 0, 0, fmt.Errorf("range %q is inverted", val)
		}
		return lo, hi, nil
	}
	lo, err = strconv.ParseUint(val, 10, 64)
	return lo, lo, err
}

// Apply returns the samples passing all filters, loading them into a fresh
// recorder for aggregation.
func Apply(samples []stats.Sample, filters []Filter) *stats.Recorder {
	rec := stats.NewRecorder()
	for _, s := range samples {
		ok := true
		for _, f := range filters {
			if !f(s) {
				ok = false
				break
			}
		}
		if ok {
			rec.Record(s)
		}
	}
	return rec
}
