package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Kind discriminates the metric flavors held by the registry.
type Kind uint8

const (
	KindCounter Kind = iota // monotonically increasing event count
	KindGauge               // instantaneous signed level (occupancy, depth)
	KindHist                // power-of-two-bucketed value distribution
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHist:
		return "hist"
	}
	return "unknown"
}

// Counter is a monotonically increasing event counter. All operations are
// atomic so the live HTTP endpoint can scrape mid-run without racing the
// simulation thread.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed level.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket 0 holds
// the value 0, bucket i (1..63) holds values in [2^(i-1), 2^i - 1], and
// bucket 64 holds values >= 2^63.
const histBuckets = 65

// Histogram records a distribution of non-negative integer values (latencies
// in ticks, queue depths) in power-of-two buckets. Observing is one atomic
// increment plus two atomic adds — cheap enough for per-flit paths — and the
// bucket layout is fixed, so two histograms are always mergeable and the
// exposition needs no configuration.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// bucketIndex maps a value to its bucket: bits.Len64 is 0 for 0 and
// floor(log2(v))+1 otherwise, exactly the power-of-two bucket number.
func bucketIndex(v uint64) int {
	return bits.Len64(v)
}

// BucketUpper returns the inclusive upper bound of bucket i, or
// math.MaxUint64 for the overflow bucket.
func BucketUpper(i int) uint64 {
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Bucket returns the observation count of bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i].Load() }

// Mean returns the mean observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}
