// Package stats implements the latency and throughput statistics gathered
// during a simulation's sampling window: aggregate summaries (mean,
// percentiles), full latency distributions (PDF/CDF/percentile curves) and
// time-binned series for transient analysis. Viewing latency distributions —
// not just average latency — is of critical importance to all the analysis
// tooling.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"supersim/internal/sim"
)

// Sample is one completed transfer (message or packet).
type Sample struct {
	Start      sim.Tick // creation time
	End        sim.Tick // delivery time
	Flits      int
	Hops       int
	NonMinimal bool
	App        int
	Src, Dst   int
}

// Latency returns the end-to-end latency in ticks.
func (s Sample) Latency() sim.Tick { return s.End - s.Start }

// row is a Sample as the recorder stores it: 32 bytes and pointer-free, so
// a chunk of them is nothing for the GC to scan. The field types are the
// ranges a recordable sample must fit (Check).
type row struct {
	start, end      uint64
	flits, src, dst uint32
	hops            uint16
	app             uint8
	nonMinimal      bool
}

func pack(s Sample) row {
	return row{start: s.Start, end: s.End, flits: uint32(s.Flits), src: uint32(s.Src), dst: uint32(s.Dst),
		hops: uint16(s.Hops), app: uint8(s.App), nonMinimal: s.NonMinimal}
}

func (w *row) sample() Sample {
	return Sample{Start: w.start, End: w.end, Flits: int(w.flits), Hops: int(w.hops),
		NonMinimal: w.nonMinimal, App: int(w.app), Src: int(w.src), Dst: int(w.dst)}
}

func (w *row) latency() float64 { return float64(w.end - w.start) }

// holds reports whether w = pack(s) is a faithful, recordable copy of s: no
// field was narrowed to a different value and s does not end before it starts.
func (w *row) holds(s Sample) bool {
	return s.End >= s.Start && int(w.flits) == s.Flits && int(w.src) == s.Src && int(w.dst) == s.Dst &&
		int(w.hops) == s.Hops && int(w.app) == s.App
}

// Check reports why s cannot be recorded: it ends before it starts, or a
// field is outside the range a row holds. Readers of outside input (a
// transaction log, a snapshot) reject what fails it, so that Record's panic
// stays a model invariant.
func (s Sample) Check() error {
	w := pack(s)
	switch {
	case s.End < s.Start:
		return fmt.Errorf("sample ends (%d) before it starts (%d)", s.End, s.Start)
	case !w.holds(s):
		return fmt.Errorf("sample %+v has a field out of range (it would be stored as %+v)", s, w.sample())
	}
	return nil
}

// Provider is implemented by application models that expose their sampled
// transfers (Blast, Pulse); tools use it to extract statistics generically.
type Provider interface {
	Stats() *Recorder
}

// chunkRows is the number of rows in one chunk: 256 KB of 32-byte rows.
const chunkRows = 8192

// Recorder accumulates samples in fixed-size chunks of packed rows, each
// allocated when the one before it fills and never copied afterwards.
type Recorder struct {
	chunks []*[chunkRows]row
	n      int
	sorted []float64 // lazily built latency vector, stale while shorter than n
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record adds one sample, which must pass Check.
func (r *Recorder) Record(s Sample) {
	w := pack(s)
	if !w.holds(s) {
		panic("stats: " + s.Check().Error())
	}
	r.push(w)
}

func (r *Recorder) push(w row) {
	if r.n == len(r.chunks)*chunkRows {
		r.chunks = append(r.chunks, new([chunkRows]row))
	}
	*r.row(r.n) = w
	r.n++
}

func (r *Recorder) row(i int) *row { return &r.chunks[uint(i)/chunkRows][uint(i)%chunkRows] }

// Count returns the number of samples.
func (r *Recorder) Count() int { return r.n }

// At returns sample i, 0 <= i < Count(): the way to read samples in order.
func (r *Recorder) At(i int) Sample {
	if uint(i) >= uint(r.n) {
		panic(fmt.Sprintf("stats: sample %d of %d", i, r.n))
	}
	return r.row(i).sample()
}

// Samples copies every sample into a new slice, 64 bytes each. It exists for
// callers that need a slice; a walk should use Count and At.
func (r *Recorder) Samples() []Sample {
	out := make([]Sample, r.n)
	for i := range out {
		out[i] = r.row(i).sample()
	}
	return out
}

// Flits returns the total flits across all samples.
func (r *Recorder) Flits() int {
	n := 0
	for i := 0; i < r.n; i++ {
		n += int(r.row(i).flits)
	}
	return n
}

// NonMinimalFraction returns the fraction of samples that took a non-minimal
// route.
func (r *Recorder) NonMinimalFraction() float64 {
	if r.n == 0 {
		return 0
	}
	n := 0
	for i := 0; i < r.n; i++ {
		if r.row(i).nonMinimal {
			n++
		}
	}
	return float64(n) / float64(r.n)
}

func (r *Recorder) latencies() []float64 {
	if len(r.sorted) != r.n {
		r.sorted = slices.Grow(r.sorted[:0], r.n)
		for i := 0; i < r.n; i++ {
			r.sorted = append(r.sorted, r.row(i).latency())
		}
		sort.Float64s(r.sorted)
	}
	return r.sorted
}

// Mean returns the average latency; NaN with no samples.
func (r *Recorder) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := 0; i < r.n; i++ {
		sum += r.row(i).latency()
	}
	return sum / float64(r.n)
}

// Min returns the smallest latency; NaN with no samples.
func (r *Recorder) Min() float64 {
	l := r.latencies()
	if len(l) == 0 {
		return math.NaN()
	}
	return l[0]
}

// Max returns the largest latency; NaN with no samples.
func (r *Recorder) Max() float64 {
	l := r.latencies()
	if len(l) == 0 {
		return math.NaN()
	}
	return l[len(l)-1]
}

// Percentile returns the p-th percentile latency (p in [0, 100]), using
// nearest-rank on the sorted latencies. NaN with no samples.
func (r *Recorder) Percentile(p float64) float64 {
	l := r.latencies()
	if len(l) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	rank := int(math.Ceil(p / 100 * float64(len(l))))
	if rank < 1 {
		rank = 1
	}
	return l[rank-1]
}

// MeanHops returns the average hop count; NaN with no samples.
func (r *Recorder) MeanHops() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	sum := 0
	for i := 0; i < r.n; i++ {
		sum += int(r.row(i).hops)
	}
	return float64(sum) / float64(r.n)
}

// Summary is the aggregate view of a recorder, convenient for tabulation.
type Summary struct {
	Count                int
	Mean, Min, Max       float64
	P50, P90, P99        float64
	P999, P9999          float64
	MeanHops, NonMinimal float64
	TotalFlits           int
}

// Summarize computes the standard aggregate set.
func (r *Recorder) Summarize() Summary {
	return Summary{
		Count:      r.Count(),
		Mean:       r.Mean(),
		Min:        r.Min(),
		Max:        r.Max(),
		P50:        r.Percentile(50),
		P90:        r.Percentile(90),
		P99:        r.Percentile(99),
		P999:       r.Percentile(99.9),
		P9999:      r.Percentile(99.99),
		MeanHops:   r.MeanHops(),
		NonMinimal: r.NonMinimalFraction(),
		TotalFlits: r.Flits(),
	}
}

// PercentileCurve returns (percentile, latency) points for the percentile
// distribution plot, at the given percentile values.
func (r *Recorder) PercentileCurve(points []float64) [][2]float64 {
	out := make([][2]float64, len(points))
	for i, p := range points {
		out[i] = [2]float64{p, r.Percentile(p)}
	}
	return out
}

// CDF returns (latency, cumulative fraction) points over the sample set.
func (r *Recorder) CDF() [][2]float64 {
	l := r.latencies()
	if len(l) == 0 {
		return nil
	}
	var out [][2]float64
	for i, v := range l {
		// keep only the last point of runs of equal latency
		if i+1 < len(l) && l[i+1] == v {
			continue
		}
		out = append(out, [2]float64{v, float64(i+1) / float64(len(l))})
	}
	return out
}

// PDF returns a bucketed probability density: `buckets` equal-width bins
// over [min, max], each point (bucket center, fraction).
func (r *Recorder) PDF(buckets int) [][2]float64 {
	l := r.latencies()
	if len(l) == 0 || buckets <= 0 {
		return nil
	}
	lo, hi := l[0], l[len(l)-1]
	if hi == lo {
		return [][2]float64{{lo, 1}}
	}
	width := (hi - lo) / float64(buckets)
	counts := make([]int, buckets)
	for _, v := range l {
		b := int((v - lo) / width)
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	out := make([][2]float64, buckets)
	for b, c := range counts {
		out[b] = [2]float64{lo + (float64(b)+0.5)*width, float64(c) / float64(len(l))}
	}
	return out
}

// TimeSeries bins samples by end time and returns (bin center tick, mean
// latency) points — the transient view used to watch one application disturb
// another.
func (r *Recorder) TimeSeries(binWidth sim.Tick) [][2]float64 {
	if r.n == 0 || binWidth == 0 {
		return nil
	}
	type agg struct {
		sum float64
		n   int
	}
	bins := map[uint64]*agg{}
	var minB, maxB uint64
	first := true
	for i := 0; i < r.n; i++ {
		w := r.row(i)
		b := w.end / binWidth
		a := bins[b]
		if a == nil {
			a = &agg{}
			bins[b] = a
		}
		a.sum += w.latency()
		a.n++
		if first || b < minB {
			minB = b
		}
		if first || b > maxB {
			maxB = b
		}
		first = false
	}
	var out [][2]float64
	for b := minB; b <= maxB; b++ {
		if a := bins[b]; a != nil {
			center := float64(b)*float64(binWidth) + float64(binWidth)/2
			out = append(out, [2]float64{center, a.sum / float64(a.n)})
		}
	}
	return out
}

// ChannelCounter is the view of a link needed for utilization statistics
// (satisfied by *channel.Channel).
type ChannelCounter interface {
	Injected() uint64
	Period() sim.Tick
}

// ChannelUtilization summarizes link usage over a time window: the mean,
// min and max utilization across all channels, each as a fraction of the
// channel's flit capacity for the window. Counters must be snapshotted by
// the caller at the window start (pass the deltas).
func ChannelUtilization(flits []uint64, periods []sim.Tick, window sim.Tick) (mean, min, max float64) {
	if len(flits) == 0 || window == 0 {
		return 0, 0, 0
	}
	if len(flits) != len(periods) {
		panic("stats: flits/periods length mismatch")
	}
	min = math.Inf(1)
	sum := 0.0
	for i, f := range flits {
		capacity := float64(window) / float64(periods[i])
		u := float64(f) / capacity
		sum += u
		min = math.Min(min, u)
		max = math.Max(max, u)
	}
	return sum / float64(len(flits)), min, max
}

// Throughput returns the accepted load as a fraction of terminal channel
// capacity: flits delivered per terminal per channel cycle over the window.
func Throughput(totalFlits int, terminals int, window sim.Tick, chanPeriod sim.Tick) float64 {
	if terminals <= 0 || window == 0 {
		return 0
	}
	cycles := float64(window) / float64(chanPeriod)
	return float64(totalFlits) / (float64(terminals) * cycles)
}
