package telemetry

import (
	"math"
	"math/bits"
	"sync"
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
// in ticks, queue depths) in power-of-two buckets. Its values are plain
// integers guarded by its registry's histogram lock, one lock for all of the
// registry's histograms: Observe takes it once per call, the span recorder
// once per finished message for every observation the message folds, and the
// exposition, the snapshot bins and the checkpoint codec each copy a
// histogram once under it, so a live scrape never sees a count that disagrees
// with the buckets. The bucket layout is fixed, so two histograms are always
// mergeable and the exposition needs no configuration. Registry.Histogram
// creates histograms; the zero value has no lock and must not be used.
type Histogram struct {
	mu *sync.Mutex // the registry's histogram lock
	v  histValues
}

// histValues is a histogram's state, observed under the registry's
// histogram lock and copied out of it whole.
type histValues struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
}

// observe records one value.
func (v *histValues) observe(x uint64) {
	v.buckets[bucketIndex(x)]++
	v.count++
	v.sum += x
}

// mean returns the mean observed value, or 0 with no observations.
func (v *histValues) mean() float64 {
	if v.count == 0 {
		return 0
	}
	return float64(v.sum) / float64(v.count)
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
	h.mu.Lock()
	h.v.observe(v)
	h.mu.Unlock()
}

// load returns a consistent copy of the histogram's values.
func (h *Histogram) load() histValues {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.load().count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.load().sum }

// Bucket returns the observation count of bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.load().buckets[i] }

// Mean returns the mean observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	v := h.load()
	return v.mean()
}
