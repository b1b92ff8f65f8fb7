package stats

import (
	"testing"

	"supersim/internal/sim"
)

// BenchmarkPercentile measures the sorted-readout path over a large sample
// set, including one incremental re-sort.
func BenchmarkPercentile(b *testing.B) {
	r := NewRecorder()
	for i := 0; i < 100000; i++ {
		r.Record(Sample{Start: 0, End: sim.Tick(i*2654435761) % 100000, Flits: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Percentile(99.9)
	}
}

// BenchmarkSummarize measures the whole aggregate set over 100 k samples,
// with the sort a run's first Summarize pays.
func BenchmarkSummarize(b *testing.B) {
	_, r := manySamples(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.sorted = r.sorted[:0]
		sink = r.Summarize()
	}
}

var sink Summary

// BenchmarkRecord measures sample append cost.
func BenchmarkRecord(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(Sample{Start: 0, End: sim.Tick(i), Flits: 1})
	}
}
