package ssparse

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"supersim/internal/telemetry"
)

// Spans JSONL support: the latency-decomposition stream written by the span
// recorder (simulation.telemetry.spans_file / supersim -spans) is aggregated
// here into per-app, per-hop, per-component distributions — the offline
// counterpart of the online span_* histograms — for the ssparse -spans report
// and ssplot's breakdown plot kind.

// Dist accumulates one component's latency observations and answers
// count/mean/percentile queries. Observations are kept raw (span streams are
// sampled, so cardinality is modest) and sorted lazily.
type Dist struct {
	vals   []uint64
	sum    uint64
	sorted bool
}

// Observe adds one latency observation.
func (d *Dist) Observe(v uint64) {
	d.vals = append(d.vals, v)
	d.sum += v
	d.sorted = false
}

// Count returns the number of observations.
func (d *Dist) Count() int { return len(d.vals) }

// Sum returns the total of all observations.
func (d *Dist) Sum() uint64 { return d.sum }

// Mean returns the average observation, or 0 when empty.
func (d *Dist) Mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	return float64(d.sum) / float64(len(d.vals))
}

// Percentile returns the p-th percentile (0..100) by floor rank — the
// largest observation at or below the requested rank — or 0 when empty.
func (d *Dist) Percentile(p float64) uint64 {
	if len(d.vals) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Slice(d.vals, func(i, j int) bool { return d.vals[i] < d.vals[j] })
		d.sorted = true
	}
	rank := int(p / 100 * float64(len(d.vals)-1))
	return d.vals[rank]
}

// HopSpans aggregates the five pipeline components of one hop position.
type HopSpans struct {
	VCAlloc, SWAlloc, Xbar, Output, Wire Dist
}

// components iterates the hop's distributions in canonical order.
func (h *HopSpans) components() []struct {
	name string
	d    *Dist
} {
	return []struct {
		name string
		d    *Dist
	}{
		{"vc_alloc", &h.VCAlloc}, {"sw_alloc", &h.SWAlloc},
		{"xbar", &h.Xbar}, {"output", &h.Output}, {"wire", &h.Wire},
	}
}

// AppSpans aggregates one traffic class. Hops is indexed by hop position:
// index 0 is the source interface (only Wire populated), 1..N are routers.
type AppSpans struct {
	Queue, Eject, E2E Dist
	Hops              []*HopSpans
}

func (a *AppSpans) hop(i int) *HopSpans {
	for len(a.Hops) <= i {
		a.Hops = append(a.Hops, &HopSpans{})
	}
	return a.Hops[i]
}

// SpanAgg is the full aggregation of one spans stream.
type SpanAgg struct {
	Header  telemetry.SpanHeader
	Records int
	Apps    map[int]*AppSpans
}

// appIDs returns the traffic classes present, sorted.
func (a *SpanAgg) appIDs() []int {
	ids := make([]int, 0, len(a.Apps))
	for id := range a.Apps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// LoadSpans reads and aggregates a spans JSONL stream (telemetry.ReadSpans
// verifies each record's exactness on the way in).
func LoadSpans(r io.Reader) (*SpanAgg, error) {
	agg := &SpanAgg{Apps: map[int]*AppSpans{}}
	hdr, err := telemetry.ReadSpans(r, func(rec telemetry.SpanRecord) error {
		agg.Records++
		app := agg.Apps[rec.App]
		if app == nil {
			app = &AppSpans{}
			agg.Apps[rec.App] = app
		}
		app.Queue.Observe(rec.Queue)
		app.Eject.Observe(rec.Eject)
		app.E2E.Observe(rec.E2E)
		for i := range rec.PerHop {
			h := app.hop(i)
			ph := &rec.PerHop[i]
			h.Wire.Observe(ph.Wire)
			if i == 0 {
				continue // the source interface has no router pipeline stages
			}
			h.VCAlloc.Observe(ph.VCAlloc)
			h.SWAlloc.Observe(ph.SWAlloc)
			h.Xbar.Observe(ph.Xbar)
			h.Output.Observe(ph.Output)
		}
		return nil
	})
	agg.Header = hdr
	if err != nil {
		return nil, err
	}
	return agg, nil
}

// hopLabel names a hop position for reports: the source interface, then
// router positions by number.
func hopLabel(i int) string {
	if i == 0 {
		return "src"
	}
	return fmt.Sprintf("%d", i)
}

// WriteTable renders the per-app latency decomposition as a human-readable
// report: one stacked per-hop table of mean component latencies plus
// distribution lines for the hop-independent components.
func (a *SpanAgg) WriteTable(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "spans: %d records at sample fraction %g\n", a.Records, a.Header.Sample)
	for _, id := range a.appIDs() {
		app := a.Apps[id]
		fmt.Fprintf(bw, "app %d: e2e mean=%.1f p50=%d p99=%d (%d spans)\n",
			id, app.E2E.Mean(), app.E2E.Percentile(50), app.E2E.Percentile(99), app.E2E.Count())
		fmt.Fprintf(bw, "  queue mean=%.1f p50=%d p99=%d   eject mean=%.1f p50=%d p99=%d\n",
			app.Queue.Mean(), app.Queue.Percentile(50), app.Queue.Percentile(99),
			app.Eject.Mean(), app.Eject.Percentile(50), app.Eject.Percentile(99))
		fmt.Fprintf(bw, "  %4s %9s %9s %9s %9s %9s %9s\n",
			"hop", "vc_alloc", "sw_alloc", "xbar", "output", "wire", "total")
		for i, h := range app.Hops {
			total := h.VCAlloc.Mean() + h.SWAlloc.Mean() + h.Xbar.Mean() + h.Output.Mean() + h.Wire.Mean()
			fmt.Fprintf(bw, "  %4s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
				hopLabel(i), h.VCAlloc.Mean(), h.SWAlloc.Mean(), h.Xbar.Mean(),
				h.Output.Mean(), h.Wire.Mean(), total)
		}
	}
	return bw.Flush()
}

// WriteSpansCSV emits the aggregation as CSV, one row per (app, hop,
// component) cell plus the hop-independent queue/eject/e2e rows.
func (a *SpanAgg) WriteSpansCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "app,hop,component,count,mean,p50,p99"); err != nil {
		return err
	}
	row := func(app int, hop, comp string, d *Dist) {
		fmt.Fprintf(bw, "%d,%s,%s,%d,%g,%d,%d\n",
			app, hop, comp, d.Count(), d.Mean(), d.Percentile(50), d.Percentile(99))
	}
	for _, id := range a.appIDs() {
		app := a.Apps[id]
		row(id, "src", "queue", &app.Queue)
		for i, h := range app.Hops {
			for _, c := range h.components() {
				if i == 0 && c.name != "wire" {
					continue
				}
				row(id, hopLabel(i), c.name, c.d)
			}
		}
		row(id, "dst", "eject", &app.Eject)
		row(id, "all", "e2e", &app.E2E)
	}
	return bw.Flush()
}
