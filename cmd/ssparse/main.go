// Command ssparse parses transaction logs written by supersim and generates
// latency information, with an easy-to-use filtering mechanism for viewing
// subsets of the data.
//
// Usage:
//
//	ssparse results.log +app=0 +send=500-1000
//
// Filters are ANDed. The aggregate latency summary prints to stdout; -csv
// additionally emits the percentile distribution as CSV.
//
// With -telemetry the input is a telemetry snapshot stream (JSONL, written by
// supersim -telemetry-file) instead of a transaction log; records are
// filtered by component, metric, kind, VC and time range and extracted to
// CSV:
//
//	ssparse -telemetry tel.jsonl +comp=ch_ +metric=chan_flits +t=1000-5000 -csv util.csv
//
// With -spans the input is a latency-decomposition stream (spans JSONL,
// written by supersim -spans); the per-app per-hop component breakdown prints
// as a stacked table, and -csv emits one (app, hop, component) row per cell:
//
//	ssparse -spans spans.jsonl -csv breakdown.csv
//
// With -spans and -chrome the records are instead rendered as a Chrome
// trace-event timeline, one slice per message with its pipeline stages nested
// in it, for chrome://tracing or Perfetto:
//
//	ssparse -spans spans.jsonl -chrome timeline.json
//
// With -tasks the input is a task event journal (JSONL, written by sssweep
// -journal); the per-task lifecycle summary prints to stdout, and -csv emits
// one timeline row per task (queued/ready/started/finished offsets plus
// wait, resource-blocked and run durations):
//
//	ssparse -tasks tasks.jsonl -csv timelines.csv
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"supersim/internal/ssparse"
	"supersim/internal/ssplot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ssparse:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var path, csvPath, chromePath string
	var telemetryMode, spansMode, tasksMode bool
	var rawFilters []string
	for i := 0; i < len(args); i++ {
		arg := args[i]
		switch {
		case strings.HasPrefix(arg, "+"):
			rawFilters = append(rawFilters, arg)
		case arg == "-csv":
			i++
			if i >= len(args) {
				return fmt.Errorf("-csv requires a file argument")
			}
			csvPath = args[i]
		case arg == "-chrome":
			i++
			if i >= len(args) {
				return fmt.Errorf("-chrome requires a file argument")
			}
			chromePath = args[i]
		case arg == "-telemetry":
			telemetryMode = true
		case arg == "-spans":
			spansMode = true
		case arg == "-tasks":
			tasksMode = true
		case path == "":
			path = arg
		default:
			return fmt.Errorf("unexpected argument %q", arg)
		}
	}
	if path == "" {
		return fmt.Errorf("usage: ssparse [-telemetry|-spans|-tasks] <log file> [+filter ...] [-csv out.csv | -chrome out.json]")
	}
	modes := 0
	for _, on := range []bool{telemetryMode, spansMode, tasksMode} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-telemetry, -spans and -tasks are mutually exclusive")
	}
	if chromePath != "" && (!spansMode || csvPath != "") {
		return fmt.Errorf("-chrome renders a spans stream: it needs -spans and excludes -csv")
	}
	if telemetryMode {
		return runTelemetry(path, rawFilters, csvPath)
	}
	if spansMode {
		return runSpans(path, rawFilters, csvPath, chromePath)
	}
	if tasksMode {
		return runTasks(path, rawFilters, csvPath)
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
	s := rec.Summarize()
	fmt.Printf("samples:    %d (of %d before filters)\n", s.Count, len(samples))
	if s.Count == 0 {
		return nil
	}
	fmt.Printf("latency:    mean=%.1f min=%.0f max=%.0f\n", s.Mean, s.Min, s.Max)
	fmt.Printf("percentile: p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f p99.99=%.0f\n",
		s.P50, s.P90, s.P99, s.P999, s.P9999)
	fmt.Printf("hops:       mean=%.2f  nonminimal: %.4f\n", s.MeanHops, s.NonMinimal)
	if csvPath != "" {
		out, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer out.Close()
		pts := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99, 99.9, 99.99, 100}
		series := []ssplot.Series{{Label: "latency", XY: rec.PercentileCurve(pts)}}
		if err := ssplot.WriteCSV(out, series); err != nil {
			return err
		}
		fmt.Printf("wrote percentile CSV to %s\n", csvPath)
	}
	return nil
}

// runSpans aggregates a spans JSONL stream (supersim -spans) into the per-app
// per-hop latency decomposition: a stacked table on stdout and, with -csv,
// one (app, hop, component) row per distribution cell. With -chrome it
// renders the stream as a trace-event timeline instead.
func runSpans(path string, rawFilters []string, csvPath, chromePath string) error {
	if len(rawFilters) > 0 {
		return fmt.Errorf("+filters are not supported with -spans (the stream is already per-app)")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if chromePath != "" {
		return runChrome(f, chromePath)
	}
	agg, err := ssparse.LoadSpans(f)
	if err != nil {
		return err
	}
	if err := agg.WriteTable(os.Stdout); err != nil {
		return err
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
		fmt.Printf("wrote spans CSV to %s\n", csvPath)
	}
	return nil
}

// runChrome streams the spans records in r into a Chrome trace-event file. A
// failed render removes the file rather than leave a truncated document.
func runChrome(r io.Reader, chromePath string) error {
	out, err := os.Create(chromePath)
	if err != nil {
		return err
	}
	n, err := ssparse.WriteChrome(out, r)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(chromePath)
		return err
	}
	fmt.Printf("wrote Chrome trace of %d messages to %s\n", n, chromePath)
	return nil
}

// runTasks summarizes a task event journal (sssweep -journal): the run's
// state counts and timing aggregates on stdout and, with -csv, one timeline
// row per task.
func runTasks(path string, rawFilters []string, csvPath string) error {
	if len(rawFilters) > 0 {
		return fmt.Errorf("+filters are not supported with -tasks")
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
	states := map[string]int{}
	var waitMS, blockedMS, runMS int64
	blocked := 0
	for _, tl := range log.Tasks {
		states[tl.State]++
		if tl.WaitMS > 0 {
			waitMS += tl.WaitMS
		}
		if tl.BlockedMS > 0 {
			blockedMS += tl.BlockedMS
			blocked++
		}
		if tl.RunMS > 0 {
			runMS += tl.RunMS
		}
	}
	fmt.Printf("tasks:      %d (%d succeeded, %d failed, %d skipped, %d canceled)\n",
		len(log.Tasks), states["succeeded"], states["failed"], states["skipped"], states["canceled"])
	fmt.Printf("span:       %d ms (start %s)\n", log.SpanMS(), log.Header.Start)
	fmt.Printf("durations:  run=%dms wait=%dms blocked=%dms (%d tasks blocked on resources)\n",
		runMS, waitMS, blockedMS, blocked)
	if csvPath != "" {
		out, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := log.WriteTasksCSV(out); err != nil {
			return err
		}
		fmt.Printf("wrote task CSV to %s\n", csvPath)
	}
	return nil
}

// runTelemetry extracts and filters telemetry snapshot records.
func runTelemetry(path string, rawFilters []string, csvPath string) error {
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
	comps := map[string]bool{}
	metrics := map[string]bool{}
	var tMin, tMax uint64
	for i, r := range recs {
		comps[r.Comp] = true
		metrics[r.Metric] = true
		if i == 0 || r.T < tMin {
			tMin = r.T
		}
		if r.T > tMax {
			tMax = r.T
		}
	}
	fmt.Printf("records:    %d\n", len(recs))
	if len(recs) == 0 {
		return nil
	}
	fmt.Printf("components: %d  metrics: %d\n", len(comps), len(metrics))
	fmt.Printf("time range: %d-%d ticks\n", tMin, tMax)
	if csvPath != "" {
		out, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := ssparse.WriteTelemetryCSV(out, recs); err != nil {
			return err
		}
		fmt.Printf("wrote telemetry CSV to %s\n", csvPath)
	}
	return nil
}
