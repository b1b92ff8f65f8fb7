package telemetry

import (
	"math"
	"testing"
)

// TestHistogramBucketBoundaries pins the power-of-two bucket mapping at every
// boundary: exact powers of two open a new bucket, one-less values close the
// previous one, and values at or above 2^63 land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1 << 10, 11},
		{1<<10 - 1, 10},
		{1<<62 - 1, 62},
		{1 << 62, 63},
		{1<<63 - 1, 63},
		{1 << 63, 64},
		{math.MaxUint64, 64},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestBucketUpper checks the inclusive upper bounds line up with the index
// mapping: every value must satisfy BucketUpper(bucketIndex(v)-1) < v <=
// BucketUpper(bucketIndex(v)).
func TestBucketUpper(t *testing.T) {
	if got := BucketUpper(0); got != 0 {
		t.Errorf("BucketUpper(0) = %d, want 0", got)
	}
	if got := BucketUpper(1); got != 1 {
		t.Errorf("BucketUpper(1) = %d, want 1", got)
	}
	if got := BucketUpper(4); got != 15 {
		t.Errorf("BucketUpper(4) = %d, want 15", got)
	}
	if got := BucketUpper(64); got != math.MaxUint64 {
		t.Errorf("BucketUpper(64) = %d, want MaxUint64", got)
	}
	for _, v := range []uint64{1, 2, 3, 15, 16, 17, 1 << 40, 1<<63 - 1, 1 << 63} {
		i := bucketIndex(v)
		if v > BucketUpper(i) {
			t.Errorf("value %d above its bucket %d upper bound %d", v, i, BucketUpper(i))
		}
		if i > 0 && v <= BucketUpper(i-1) {
			t.Errorf("value %d fits in bucket %d, mapped to %d", v, i-1, i)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	h := newRegistry().Histogram("h", "c", -1) // guarded by its registry's lock
	for _, v := range []uint64{0, 1, 1, 3, 200} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 205 {
		t.Fatalf("sum = %d, want 205", h.Sum())
	}
	if got := h.Mean(); got != 41 {
		t.Fatalf("mean = %g, want 41", got)
	}
	if h.Bucket(0) != 1 || h.Bucket(1) != 2 || h.Bucket(2) != 1 || h.Bucket(8) != 1 {
		t.Fatalf("unexpected bucket layout: 0:%d 1:%d 2:%d 8:%d",
			h.Bucket(0), h.Bucket(1), h.Bucket(2), h.Bucket(8))
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	var g Gauge
	g.Add(3)
	g.Add(-5)
	if g.Load() != -2 {
		t.Fatalf("gauge = %d, want -2", g.Load())
	}
	g.Set(7)
	if g.Load() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Load())
	}
}
