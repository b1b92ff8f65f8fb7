package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metric is one registered time series: a name, the owning component, an
// optional virtual-channel index (-1 when not applicable), and exactly one of
// the three value holders depending on kind.
type metric struct {
	name  string
	comp  string
	vc    int
	kind  Kind
	scale float64 // counters only: snapshot rate U = delta*scale/binTicks

	c Counter
	g Gauge
	h *Histogram

	// last* remember the value at the previous snapshot so bins emit deltas.
	lastC uint64
	lastG int64
	lastH uint64
}

func metricKey(name, comp string, vc int) string {
	return name + "\x00" + comp + "\x00" + strconv.Itoa(vc)
}

// Registry holds every metric of one simulation. Registration is
// mutex-guarded and idempotent — two components (or two goroutines in tests)
// registering the same (name, component, vc) triple get the same metric —
// and all emission paths iterate in sorted (name, comp, vc) order, so output
// is deterministic regardless of registration order. Counter and gauge
// values are atomics, and every histogram's values are guarded by the one
// histogram lock hmu, so the registry is safe to scrape from the HTTP
// goroutine while the simulation runs.
type Registry struct {
	mu sync.Mutex
	// hmu guards the values of every histogram. It may be held while taking
	// mu (the span recorder registers a histogram on its first fold), never
	// the reverse.
	hmu    sync.Mutex
	index  map[string]*metric
	list   []*metric // kept sorted by (name, comp, vc)
	sorted bool
}

func newRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// NewRegistry returns an empty standalone registry for aggregation layers —
// the sweep monitor publishes fleet-level metrics through the same sorted,
// byte-stable exposition paths without owning a Telemetry instance.
func NewRegistry() *Registry { return newRegistry() }

func (r *Registry) register(name, comp string, vc int, kind Kind, scale float64) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := metricKey(name, comp, vc)
	if m, ok := r.index[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q of %s re-registered as %v, was %v", name, comp, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, comp: comp, vc: vc, kind: kind, scale: scale}
	if kind == KindHist {
		m.h = &Histogram{mu: &r.hmu}
	}
	r.index[key] = m
	r.list = append(r.list, m)
	r.sorted = false
	return m
}

// Counter registers (or finds) a counter. scale is the per-bin rate factor
// used by snapshots: a snapshot bin emits U = delta*scale/binTicks, so a
// channel with one flit slot per period P passes scale=P to make U its
// utilization in [0,1]. Pass 0 to skip rate emission.
func (r *Registry) Counter(name, comp string, vc int, scale float64) *Counter {
	return &r.register(name, comp, vc, KindCounter, scale).c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, comp string, vc int) *Gauge {
	return &r.register(name, comp, vc, KindGauge, 0).g
}

// Histogram registers (or finds) a histogram.
func (r *Registry) Histogram(name, comp string, vc int) *Histogram {
	return r.register(name, comp, vc, KindHist, 0).h
}

// snapshotLocked returns the metric list in deterministic order. Caller must
// hold r.mu.
func (r *Registry) sortLocked() []*metric {
	if !r.sorted {
		sort.Slice(r.list, func(i, j int) bool {
			a, b := r.list[i], r.list[j]
			if a.name != b.name {
				return a.name < b.name
			}
			if a.comp != b.comp {
				return a.comp < b.comp
			}
			return a.vc < b.vc
		})
		r.sorted = true
	}
	return r.list
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.list)
}

// WritePrometheus renders every metric in Prometheus text exposition format,
// prefixed supersim_, with component and vc labels. Histograms emit
// cumulative le buckets plus _sum and _count. Output is sorted and therefore
// byte-stable for a given set of metric values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	list := append([]*metric(nil), r.sortLocked()...)
	r.mu.Unlock()

	var b strings.Builder
	lastName := ""
	for _, m := range list {
		promName := "supersim_" + m.name
		if m.name != lastName {
			typ := "counter"
			switch m.kind {
			case KindGauge:
				typ = "gauge"
			case KindHist:
				typ = "histogram"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", promName, typ)
			lastName = m.name
		}
		switch m.kind {
		case KindCounter:
			fmt.Fprintf(&b, "%s{%s} %d\n", promName, promLabels(m, ""), m.c.Load())
		case KindGauge:
			fmt.Fprintf(&b, "%s{%s} %d\n", promName, promLabels(m, ""), m.g.Load())
		case KindHist:
			v := m.h.load()
			cum := uint64(0)
			for i := 0; i < histBuckets; i++ {
				n := v.buckets[i]
				if n == 0 && i > 0 && i < histBuckets-1 {
					continue // sparse: skip empty interior buckets
				}
				cum += n
				le := "+Inf"
				if i < histBuckets-1 {
					le = strconv.FormatUint(BucketUpper(i), 10)
				}
				fmt.Fprintf(&b, "%s_bucket{%s} %d\n", promName, promLabels(m, le), cum)
			}
			fmt.Fprintf(&b, "%s_sum{%s} %d\n", promName, promLabels(m, ""), v.sum)
			fmt.Fprintf(&b, "%s_count{%s} %d\n", promName, promLabels(m, ""), v.count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func promLabels(m *metric, le string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "component=%q", m.comp)
	if m.vc >= 0 {
		fmt.Fprintf(&b, ",vc=%q", strconv.Itoa(m.vc))
	}
	if le != "" {
		fmt.Fprintf(&b, ",le=%q", le)
	}
	return b.String()
}
