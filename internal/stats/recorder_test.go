package stats

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"supersim/internal/sim"
)

// chunkSizes are the sample counts that put the last row on each side of a
// chunk boundary.
var chunkSizes = []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, 3*chunkRows + 7}

// manySamples returns n samples that exercise every field, some at the edge
// of the row's range, as a plain slice and recorded.
func manySamples(n int) ([]Sample, *Recorder) {
	ref := make([]Sample, n)
	r := NewRecorder()
	for i := range ref {
		h := uint64(i) * 2654435761
		ref[i] = Sample{
			Start: sim.Tick(i), End: sim.Tick(i) + h%997, Flits: 1 + i%9, Hops: int(h % 7),
			NonMinimal: h%5 == 0, App: i % 3, Src: i % 64, Dst: int(h % 64),
		}
		if i%1000 == 0 {
			ref[i].Flits, ref[i].Src, ref[i].Dst = math.MaxUint32, math.MaxUint32, math.MaxUint32
			ref[i].Hops, ref[i].App = math.MaxUint16, math.MaxUint8
		}
		r.Record(ref[i])
	}
	return ref, r
}

// refSummary, refCDF and refTimeSeries are the aggregates over a plain slice,
// written the obvious way.
func refSummary(ss []Sample) Summary {
	sum := Summary{Count: len(ss)}
	if len(ss) == 0 {
		nan := math.NaN()
		sum.Mean, sum.Min, sum.Max, sum.P50, sum.P90, sum.P99, sum.P999, sum.P9999, sum.MeanHops = nan, nan, nan, nan, nan, nan, nan, nan, nan
		return sum
	}
	lat := make([]float64, len(ss))
	hops, nonMin := 0, 0
	for i, s := range ss {
		lat[i] = float64(s.Latency())
		sum.Mean += lat[i]
		sum.TotalFlits += s.Flits
		hops += s.Hops
		if s.NonMinimal {
			nonMin++
		}
	}
	sort.Float64s(lat)
	n := float64(len(ss))
	pct := func(p float64) float64 { return lat[max(int(math.Ceil(p/100*n)), 1)-1] }
	sum.Mean /= n
	sum.Min, sum.Max = lat[0], lat[len(lat)-1]
	sum.P50, sum.P90, sum.P99, sum.P999, sum.P9999 = pct(50), pct(90), pct(99), pct(99.9), pct(99.99)
	sum.MeanHops, sum.NonMinimal = float64(hops)/n, float64(nonMin)/n
	return sum
}

func refCDF(ss []Sample) [][2]float64 {
	lat := make([]float64, len(ss))
	for i, s := range ss {
		lat[i] = float64(s.Latency())
	}
	sort.Float64s(lat)
	var out [][2]float64
	for i, v := range lat {
		if i+1 == len(lat) || lat[i+1] != v {
			out = append(out, [2]float64{v, float64(i+1) / float64(len(lat))})
		}
	}
	return out
}

func refTimeSeries(ss []Sample, width sim.Tick) [][2]float64 {
	sums, counts := map[uint64]float64{}, map[uint64]int{}
	var bins []uint64
	for _, s := range ss {
		b := s.End / width
		if counts[b] == 0 {
			bins = append(bins, b)
		}
		sums[b] += float64(s.Latency())
		counts[b]++
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	var out [][2]float64
	for _, b := range bins {
		out = append(out, [2]float64{float64(b)*float64(width) + float64(width)/2, sums[b] / float64(counts[b])})
	}
	return out
}

func TestRecorderMatchesPlainSlice(t *testing.T) {
	for _, n := range chunkSizes {
		ref, r := manySamples(n)
		if r.Count() != n {
			t.Fatalf("n=%d: Count = %d", n, r.Count())
		}
		if want := (n + chunkRows - 1) / chunkRows; len(r.chunks) != want {
			t.Fatalf("n=%d: %d chunks allocated, want %d", n, len(r.chunks), want)
		}
		for i, want := range ref {
			if got := r.At(i); got != want {
				t.Fatalf("n=%d: At(%d) = %+v, want %+v", n, i, got, want)
			}
		}
		if got := r.Samples(); len(got) != n || (n > 0 && !reflect.DeepEqual(got, ref)) {
			t.Fatalf("n=%d: Samples() differs from the recorded samples", n)
		}
		// Compared as text, so that the NaNs of an empty recorder are equal;
		// %v prints a float64 exactly.
		if got, want := r.Summarize(), refSummary(ref); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("n=%d: Summarize = %+v, want %+v", n, got, want)
		}
		if got, want := r.CDF(), refCDF(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: CDF differs: %d points, want %d", n, len(got), len(want))
		}
		if got, want := r.TimeSeries(500), refTimeSeries(ref, 500); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: TimeSeries differs: %d points, want %d", n, len(got), len(want))
		}
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	_, r := manySamples(3)
	for _, i := range []int{-1, 3, chunkRows} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) of 3 samples should panic", i)
				}
			}()
			r.At(i)
		}()
	}
}

func TestCheckNamesTheProblem(t *testing.T) {
	ok := Sample{Start: 1, End: 2, Flits: math.MaxUint32, Hops: math.MaxUint16, App: math.MaxUint8, Src: math.MaxUint32, Dst: math.MaxUint32}
	if err := ok.Check(); err != nil {
		t.Fatalf("sample at the edge of every range: %v", err)
	}
	for _, bad := range []func(*Sample){
		func(s *Sample) { s.End = 0 },
		func(s *Sample) { s.Flits = 1 << 40 },
		func(s *Sample) { s.Flits = -1 },
		func(s *Sample) { s.Hops++ },
		func(s *Sample) { s.App++ },
		func(s *Sample) { s.Src++ },
		func(s *Sample) { s.Dst = -1 },
	} {
		s := ok
		bad(&s)
		if s.Check() == nil {
			t.Errorf("Check(%+v) = nil", s)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "stats: sample ") {
					t.Errorf("Record(%+v) panicked with %q", s, msg)
				}
			}()
			NewRecorder().Record(s)
		}()
	}
}

// Record allocates when it opens a chunk and at no other time.
func TestRecordAllocatesOnlyOnChunkBoundary(t *testing.T) {
	s := Sample{Start: 1, End: 5, Flits: 1}
	_, r := manySamples(chunkRows) // the next Record opens the second chunk
	if a := testing.AllocsPerRun(chunkRows-2, func() { r.Record(s) }); a != 0 || r.Count() != 2*chunkRows-1 {
		t.Fatalf("%v allocs per Record inside a chunk, count %d", a, r.Count())
	}
	if len(r.chunks) != 2 {
		t.Fatalf("%d chunks for %d samples", len(r.chunks), r.Count())
	}
}
