// Command ssplot renders plots from supersim transaction logs: percentile
// distributions, CDFs, PDFs and transient time series, as ASCII plots and
// optional CSV series.
//
// Usage:
//
//	ssplot -plot percentile results.log [+filter ...] [-csv out.csv]
//
// The chanutil and rates plot kinds read a telemetry snapshot stream (JSONL,
// written by supersim -telemetry-file) instead of a transaction log:
// chanutil plots mean and peak channel utilization per snapshot bin, rates
// plots each application's offered vs. delivered rate (flits per cycle per
// terminal), and shardutil plots each engine shard's drained events per bin
// (a load-balance timeline for parallel runs, from the engine_window_events
// self-metrics). Telemetry filters (+comp=, +metric=, +t=lo-hi, ...) apply.
//
// The breakdown plot kind reads a latency-decomposition stream (spans JSONL,
// written by supersim -spans) and renders each application's per-hop pipeline
// component breakdown as stacked ASCII bars on a shared scale; -csv emits the
// full (app, hop, component) aggregation.
//
// The taskgantt plot kind reads a task event journal (JSONL, written by
// sssweep -journal) and renders each task's lifecycle as a Gantt bar — '.'
// while the task waited ready, '#' while it ran — followed by one utilization
// timeline per resource pool (0-9, fraction of capacity busy); -csv emits the
// per-task timeline rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"supersim/internal/ssparse"
	"supersim/internal/ssplot"
	"supersim/internal/telemetry"
)

func main() {
	plot := flag.String("plot", "percentile", "percentile | cdf | pdf | timeseries | chanutil | rates | shardutil | breakdown | taskgantt")
	csvPath := flag.String("csv", "", "also write the series as CSV")
	binWidth := flag.Uint64("bin", 0, "time series bin width in ticks (default: span/40)")
	width := flag.Int("width", 70, "ASCII plot width")
	height := flag.Int("height", 18, "ASCII plot height")
	flag.Parse()
	if err := run(*plot, *csvPath, *binWidth, *width, *height, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "ssplot:", err)
		os.Exit(1)
	}
}

func run(plot, csvPath string, binWidth uint64, width, height int, args []string) error {
	var path string
	var rawFilters []string
	for _, arg := range args {
		if strings.HasPrefix(arg, "+") {
			rawFilters = append(rawFilters, arg)
			continue
		}
		if path != "" {
			return fmt.Errorf("unexpected argument %q", arg)
		}
		path = arg
	}
	if path == "" {
		return fmt.Errorf("usage: ssplot -plot <kind> <log file> [+filter ...]")
	}
	if plot == "chanutil" || plot == "rates" || plot == "shardutil" {
		return runTelemetry(plot, path, rawFilters, csvPath, width, height)
	}
	if plot == "breakdown" {
		return runBreakdown(path, rawFilters, csvPath, width)
	}
	if plot == "taskgantt" {
		return runTaskGantt(path, rawFilters, csvPath, width)
	}
	var filters []ssparse.Filter
	for _, raw := range rawFilters {
		f, err := ssparse.ParseFilter(raw)
		if err != nil {
			return err
		}
		filters = append(filters, f)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := ssparse.Parse(f)
	if err != nil {
		return err
	}
	rec := ssparse.Apply(samples, filters)
	if rec.Count() == 0 {
		return fmt.Errorf("no samples after filters")
	}

	var series ssplot.Series
	var title, xl, yl string
	switch plot {
	case "percentile":
		pts := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99, 99.9, 99.99, 100}
		series = ssplot.Series{Label: "latency", XY: rec.PercentileCurve(pts)}
		title, xl, yl = "percentile distribution", "percentile", "latency (ticks)"
	case "cdf":
		series = ssplot.Series{Label: "cdf", XY: rec.CDF()}
		title, xl, yl = "latency CDF", "latency (ticks)", "cumulative fraction"
	case "pdf":
		series = ssplot.Series{Label: "pdf", XY: rec.PDF(40)}
		title, xl, yl = "latency PDF", "latency (ticks)", "fraction"
	case "timeseries":
		bw := binWidth
		if bw == 0 {
			span := rec.At(rec.Count()-1).End - rec.At(0).End
			bw = uint64(span/40) + 1
		}
		series = ssplot.Series{Label: "mean latency", XY: rec.TimeSeries(bw)}
		title, xl, yl = "mean latency over time", "time (ticks)", "latency (ticks)"
	default:
		return fmt.Errorf("unknown plot kind %q", plot)
	}
	ssplot.Plot(os.Stdout, title, xl, yl, []ssplot.Series{series}, width, height)
	if csvPath != "" {
		out, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := ssplot.WriteCSV(out, []ssplot.Series{series}); err != nil {
			return err
		}
	}
	return nil
}

// breakdownSeg is one component segment of a stacked breakdown bar.
type breakdownSeg struct {
	ch byte
	v  float64
}

// breakdownBar renders segments as a stacked ASCII bar, one letter per
// component, with cumulative rounding so the bar length tracks the row total.
func breakdownBar(segs []breakdownSeg, scale float64) string {
	var b strings.Builder
	acc, drawn := 0.0, 0
	for _, s := range segs {
		acc += s.v
		target := int(acc/scale + 0.5)
		for drawn < target {
			b.WriteByte(s.ch)
			drawn++
		}
	}
	return b.String()
}

// runBreakdown renders a spans JSONL stream (supersim -spans) as a per-hop
// latency decomposition: mean ticks per pipeline component at each hop,
// numerically and as stacked bars on a shared scale. With -csv the full
// (app, hop, component) aggregation is written via ssparse.
func runBreakdown(path string, rawFilters []string, csvPath string, width int) error {
	if len(rawFilters) > 0 {
		return fmt.Errorf("+filters are not supported with -plot breakdown")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	agg, err := ssparse.LoadSpans(f)
	if err != nil {
		return err
	}
	if agg.Records == 0 {
		return fmt.Errorf("no span records in %s", path)
	}

	// Shared scale: the widest row (by mean ticks) fills the plot width.
	maxRow := 0.0
	for _, app := range agg.Apps {
		maxRow = max(maxRow, app.Queue.Mean(), app.Eject.Mean())
		for _, h := range app.Hops {
			maxRow = max(maxRow, h.VCAlloc.Mean()+h.SWAlloc.Mean()+h.Xbar.Mean()+h.Output.Mean()+h.Wire.Mean())
		}
	}
	if width < 10 {
		width = 10
	}
	scale := maxRow / float64(width)
	if scale <= 0 {
		scale = 1
	}

	fmt.Printf("latency breakdown: %d spans at sample fraction %g (1 char = %.2f ticks)\n",
		agg.Records, agg.Header.Sample, scale)
	fmt.Println("legend: Q queue, V vc_alloc, S sw_alloc, X xbar, O output, W wire, E eject")
	ids := make([]int, 0, len(agg.Apps))
	for id := range agg.Apps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		app := agg.Apps[id]
		fmt.Printf("app %d: e2e mean=%.1f p50=%d p99=%d (%d spans)\n",
			id, app.E2E.Mean(), app.E2E.Percentile(50), app.E2E.Percentile(99), app.E2E.Count())
		row := func(label string, segs ...breakdownSeg) {
			total := 0.0
			for _, s := range segs {
				total += s.v
			}
			fmt.Printf("  %5s %7.1f  %s\n", label, total, breakdownBar(segs, scale))
		}
		row("queue", breakdownSeg{'Q', app.Queue.Mean()})
		for i, h := range app.Hops {
			label := "src"
			if i > 0 {
				label = fmt.Sprintf("hop %d", i)
			}
			row(label,
				breakdownSeg{'V', h.VCAlloc.Mean()}, breakdownSeg{'S', h.SWAlloc.Mean()},
				breakdownSeg{'X', h.Xbar.Mean()}, breakdownSeg{'O', h.Output.Mean()},
				breakdownSeg{'W', h.Wire.Mean()})
		}
		row("eject", breakdownSeg{'E', app.Eject.Mean()})
	}
	if csvPath != "" {
		out, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := agg.WriteSpansCSV(out); err != nil {
			return err
		}
	}
	return nil
}

// overlapMS returns the length of the intersection of [a0,a1) and [b0,b1).
func overlapMS(a0, a1, b0, b1 float64) float64 {
	lo, hi := max(a0, b0), min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// runTaskGantt renders a task event journal (sssweep -journal) as an ASCII
// Gantt chart: one bar per task in queue order ('.' ready-and-waiting, '#'
// running), then one utilization timeline per resource pool showing the
// fraction of its capacity busy in each column (blank idle, 1-9 in tenths).
// With -csv the per-task timeline rows are written via ssparse.
func runTaskGantt(path string, rawFilters []string, csvPath string, width int) error {
	if len(rawFilters) > 0 {
		return fmt.Errorf("+filters are not supported with -plot taskgantt")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := ssparse.LoadTasks(f)
	if err != nil {
		return err
	}
	if len(log.Tasks) == 0 {
		return fmt.Errorf("no tasks in %s", path)
	}
	span := log.SpanMS()
	if span <= 0 {
		span = 1
	}
	if width < 10 {
		width = 10
	}
	scale := float64(span) / float64(width)

	nameW := len("task")
	for _, tl := range log.Tasks {
		nameW = max(nameW, len(tl.Task))
	}
	fmt.Printf("task gantt: %d tasks over %d ms (1 char = %.2f ms)\n", len(log.Tasks), span, scale)
	fmt.Println("legend: . ready-and-waiting, # running; resource rows: fraction of capacity busy in tenths")
	for _, tl := range log.Tasks {
		row := make([]byte, width)
		for col := range row {
			t0, t1 := float64(col)*scale, float64(col+1)*scale
			switch {
			case tl.StartedMS >= 0 && tl.FinishedMS >= 0 &&
				overlapMS(t0, t1, float64(tl.StartedMS), float64(tl.FinishedMS)) > 0:
				row[col] = '#'
			case tl.ReadyMS >= 0 && tl.StartedMS >= 0 &&
				overlapMS(t0, t1, float64(tl.ReadyMS), float64(tl.StartedMS)) > 0:
				row[col] = '.'
			default:
				row[col] = ' '
			}
		}
		note := tl.State
		if tl.RunMS >= 0 {
			note = fmt.Sprintf("%s run=%dms", note, tl.RunMS)
		}
		if tl.BlockedMS > 0 {
			note = fmt.Sprintf("%s blocked=%dms on %s", note, tl.BlockedMS, tl.Resource)
		}
		if tl.Err != "" {
			note = fmt.Sprintf("%s (%s)", note, tl.Err)
		}
		fmt.Printf("%-*s |%s| %s\n", nameW, tl.Task, row, note)
	}

	resources := make([]string, 0, len(log.Header.Capacity))
	for res := range log.Header.Capacity {
		resources = append(resources, res)
	}
	sort.Strings(resources)
	for _, res := range resources {
		capacity := log.Header.Capacity[res]
		if capacity <= 0 {
			continue
		}
		row := make([]byte, width)
		for col := range row {
			t0, t1 := float64(col)*scale, float64(col+1)*scale
			busy := 0.0
			for _, tl := range log.Tasks {
				if tl.Res[res] <= 0 || tl.StartedMS < 0 || tl.FinishedMS < 0 {
					continue
				}
				busy += overlapMS(t0, t1, float64(tl.StartedMS), float64(tl.FinishedMS)) * float64(tl.Res[res])
			}
			util := busy / (scale * float64(capacity))
			tenths := int(util*9 + 0.5)
			if tenths <= 0 {
				row[col] = ' '
			} else {
				if tenths > 9 {
					tenths = 9
				}
				row[col] = byte('0' + tenths)
			}
		}
		fmt.Printf("%-*s |%s| capacity %d\n", nameW, res, row, capacity)
	}

	if csvPath != "" {
		out, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := log.WriteTasksCSV(out); err != nil {
			return err
		}
	}
	return nil
}

// runTelemetry renders the telemetry-backed plot kinds from a snapshot
// JSONL stream.
func runTelemetry(plot, path string, rawFilters []string, csvPath string, width, height int) error {
	var filters []ssparse.TelemetryFilter
	for _, raw := range rawFilters {
		f, err := ssparse.ParseTelemetryFilter(raw)
		if err != nil {
			return err
		}
		filters = append(filters, f)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := ssparse.LoadTelemetry(f, filters)
	if err != nil {
		return err
	}
	var series []ssplot.Series
	var title, xl, yl string
	switch plot {
	case "chanutil":
		series = chanUtilSeries(recs)
		title, xl, yl = "channel utilization", "time (ticks)", "utilization"
	case "rates":
		series = rateSeries(recs)
		title, xl, yl = "offered vs delivered rate", "time (ticks)", "flits/cycle/terminal"
	case "shardutil":
		series = shardUtilSeries(recs)
		title, xl, yl = "per-shard drained events", "time (ticks)", "events/bin"
	}
	if len(series) == 0 {
		return fmt.Errorf("no matching telemetry records in %s", path)
	}
	ssplot.Plot(os.Stdout, title, xl, yl, series, width, height)
	if csvPath != "" {
		out, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := ssplot.WriteCSV(out, series); err != nil {
			return err
		}
	}
	return nil
}

// chanUtilSeries reduces chan_flits records to mean and peak utilization per
// snapshot bin. The stream's first bin is a baseline listing every channel,
// so the mean's denominator is the full channel population — bins that omit
// an idle channel contribute its zero correctly.
func chanUtilSeries(recs []telemetry.Record) []ssplot.Series {
	channels := map[string]bool{}
	binSum := map[uint64]float64{}
	binPeak := map[uint64]float64{}
	for _, r := range recs {
		if r.Metric != "chan_flits" {
			continue
		}
		channels[r.Comp] = true
		binSum[r.T] += r.U
		if r.U > binPeak[r.T] {
			binPeak[r.T] = r.U
		}
	}
	if len(channels) == 0 {
		return nil
	}
	bins := sortedBins(binSum)
	mean := ssplot.Series{Label: "mean"}
	peak := ssplot.Series{Label: "peak"}
	for _, t := range bins {
		mean.XY = append(mean.XY, [2]float64{float64(t), binSum[t] / float64(len(channels))})
		peak.XY = append(peak.XY, [2]float64{float64(t), binPeak[t]})
	}
	return []ssplot.Series{mean, peak}
}

// rateSeries builds one offered and one delivered series per application
// from the workload's scaled counters, filling bins an app was silent in
// with zero so the curves stay aligned.
func rateSeries(recs []telemetry.Record) []ssplot.Series {
	type key struct{ comp, metric string }
	vals := map[key]map[uint64]float64{}
	binSet := map[uint64]float64{}
	for _, r := range recs {
		if r.Metric != "offered_flits" && r.Metric != "delivered_flits" {
			continue
		}
		k := key{r.Comp, r.Metric}
		if vals[k] == nil {
			vals[k] = map[uint64]float64{}
		}
		vals[k][r.T] = r.U
		binSet[r.T] = 0
	}
	if len(vals) == 0 {
		return nil
	}
	bins := sortedBins(binSet)
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].comp != keys[j].comp {
			return keys[i].comp < keys[j].comp
		}
		return keys[i].metric < keys[j].metric
	})
	var out []ssplot.Series
	for _, k := range keys {
		s := ssplot.Series{Label: k.comp + " " + strings.TrimSuffix(k.metric, "_flits")}
		for _, t := range bins {
			s.XY = append(s.XY, [2]float64{float64(t), vals[k][t]})
		}
		out = append(out, s)
	}
	return out
}

// shardUtilSeries builds one series per engine shard from the
// engine_window_events counter deltas: how many events each shard committed
// per snapshot bin. On a well-balanced partition the lines track each other;
// a shard pinned at zero while others climb is the visual signature of a
// lopsided partition. Bins a shard was silent in are zero-filled so the
// timelines stay aligned.
func shardUtilSeries(recs []telemetry.Record) []ssplot.Series {
	vals := map[string]map[uint64]float64{}
	binSet := map[uint64]float64{}
	for _, r := range recs {
		if r.Metric != "engine_window_events" {
			continue
		}
		if vals[r.Comp] == nil {
			vals[r.Comp] = map[uint64]float64{}
		}
		vals[r.Comp][r.T] = r.D
		binSet[r.T] = 0
	}
	if len(vals) == 0 {
		return nil
	}
	bins := sortedBins(binSet)
	comps := make([]string, 0, len(vals))
	for c := range vals {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	var out []ssplot.Series
	for _, c := range comps {
		s := ssplot.Series{Label: c}
		for _, t := range bins {
			s.XY = append(s.XY, [2]float64{float64(t), vals[c][t]})
		}
		out = append(out, s)
	}
	return out
}

func sortedBins(m map[uint64]float64) []uint64 {
	bins := make([]uint64, 0, len(m))
	for t := range m {
		bins = append(bins, t)
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	return bins
}
