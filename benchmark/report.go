package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// metric is one named measurement of one workload. Its value is the median
// of its samples; a count that repeats exactly has identical samples.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

func newMetric(name, unit string, samples []float64) metric {
	m := metric{Name: name, Unit: unit, Samples: samples}
	m.Q1, m.Value, m.Q3 = quartiles(samples)
	return m
}

// quartiles returns what Python's statistics.quantiles(v, n=4) does (the
// exclusive method), so that spreads computed here and by a driver agree.
// With one sample all three are that sample; with none, 0.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func perOp(ops []opResult, f func(o *opResult) float64) []float64 {
	out := make([]float64, len(ops))
	for i := range ops {
		out[i] = f(&ops[i])
	}
	return out
}

func runSeconds(o *opResult) float64 { return o.RunS }

// endToEnd is what a user of the simulator sees, measured with tracing off.
func (l *lane) endToEnd() []metric {
	return []metric{
		newMetric("run_s", "s", perOp(l.untraced, runSeconds)),
		newMetric("setup_s", "s", perOp(l.untraced, func(o *opResult) float64 { return o.SetupS })),
		newMetric("peak_rss_mb", "MB", perOp(l.untraced, func(o *opResult) float64 { return o.PeakRSSMB })),
	}
}

// perLayer attributes the run to the simulator's packages. Host times come
// from the untraced ops wherever an untraced op can give them; the traced
// ops give what only a trace can: CPU shares, queue depth, replays, spans.
// A metric that does not apply to the workload reads 0. base is the lane of
// the workload's base (fb_ioq for fb_ioq.*), the denominator of the ratios.
func (l *lane) perLayer(base *lane) []metric {
	var ms []metric
	add := func(name, unit string, samples []float64) { ms = append(ms, newMetric(name, unit, samples)) }
	u := func(f func(o *opResult) float64) []float64 { return perOp(l.untraced, f) }
	t := func(f func(o *opResult) float64) []float64 { return perOp(l.traced, f) }
	share := func(b string) []float64 { return t(func(o *opResult) float64 { return o.CPUShare[b] }) }
	replay := func(k string) []float64 { return t(func(o *opResult) float64 { return o.ReplayS[k] }) }
	overBase := func(only string) []float64 {
		if l.w.name != only {
			return []float64{0}
		}
		return []float64{median(u(runSeconds)) / median(perOp(base.untraced, runSeconds))}
	}

	add("flit_hops_per_s", "1/s", u(func(o *opResult) float64 { return float64(o.FlitHops) / o.RunS }))

	add("sim.events", "count", u(func(o *opResult) float64 { return float64(o.Events) }))
	add("sim.ns_per_event", "ns", u(func(o *opResult) float64 { return o.RunS * 1e9 / float64(o.Events) }))
	add("sim.events_per_flit_hop", "ratio", u(func(o *opResult) float64 { return float64(o.Events) / float64(o.FlitHops) }))
	add("sim.pending_mean", "count", t(func(o *opResult) float64 { return o.PendingMean }))
	add("sim.pending_max", "count", t(func(o *opResult) float64 { return o.PendingMax }))
	add("sim.queue_replay_s", "s", replay("sim.queue"))

	add("engine.cpu_s", "s", u(func(o *opResult) float64 { return o.CPUS }))
	eff := overBase("fb_ioq.w2")
	if eff[0] > 0 {
		eff[0] = 1 / (2 * eff[0])
	}
	add("engine.parallel_efficiency", "ratio", eff)

	add("stats.samples", "count", u(func(o *opResult) float64 { return float64(o.Samples) }))
	add("stats.record_replay_s", "s", replay("stats.record"))
	add("stats.summarize_s", "s", replay("stats.summarize"))

	add("channel.flit_hops", "count", u(func(o *opResult) float64 { return float64(o.FlitHops) }))

	add("snapshot.count", "count", u(func(o *opResult) float64 { return float64(o.SnapshotCount) }))
	add("snapshot.bytes", "B", u(func(o *opResult) float64 { return float64(o.SnapshotBytes) }))
	add("snapshot.encode_s", "s", t(func(o *opResult) float64 { return spanSeconds(o.Spans, "core.Snapshot") }))
	add("snapshot.restore_s", "s", t(func(o *opResult) float64 { return spanSeconds(o.Spans, "core.Restore") }))
	add("ckpt_over_serial", "ratio", overBase("fb_ioq.ckpt"))
	add("probes_over_disabled", "ratio", overBase("fb_ioq.probes"))

	add("alloc_mb", "MB", u(func(o *opResult) float64 { return o.AllocMB }))
	add("gc_cycles", "count", u(func(o *opResult) float64 { return float64(o.GCCycles) }))
	add("gc_pause_ms", "ms", u(func(o *opResult) float64 { return o.GCPauseMS }))

	for _, b := range cpuBuckets {
		add(b+".cpu_share", "%", share(b))
	}
	for _, p := range routerParts {
		add(p+".cpu_share", "%", share(p))
	}
	add("trace_overhead", "ratio", []float64{median(t(runSeconds)) / median(u(runSeconds))})
	return ms
}

// laneReport is one workload's part of a result set.
type laneReport struct {
	Workload  string     `json:"workload"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	EndToEnd  []metric   `json:"end_to_end"`
	PerLayer  []metric   `json:"per_layer,omitempty"`
	Ops       []opResult `json:"ops"`
}

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	Machine   string       `json:"machine"`
	Go        string       `json:"go"`
	Seed      uint64       `json:"seed"`
	Scale     float64      `json:"scale"`
	Trace     bool         `json:"trace"`
	Workloads []laneReport `json:"workloads"`
}

// report prints every metric by name with its unit, writes the result set
// and the spans, and ends with the one-line JSON object a driver parses. It
// returns the exit code: 1 if any op failed.
func (s *session) report(stdout io.Writer) int {
	set := resultSet{Machine: machineLine(), Go: runtime.Version(), Seed: s.opt.seed, Scale: s.opt.scale, Trace: s.opt.trace}
	attempted, failed := 0, 0
	var tracedOps []opResult
	for _, l := range s.lanes {
		if l.ref != nil {
			failed += l.ref.failed // a broken reference leaves the lane unchecked
		}
		attempted += l.attempted
		failed += l.failed
		r := laneReport{Workload: l.w.name, Attempted: l.attempted, Failed: l.failed, Ops: l.untraced}
		if len(l.untraced) > 0 {
			r.EndToEnd = l.endToEnd()
			if len(l.traced) > 0 && len(s.base(l).untraced) > 0 {
				r.PerLayer = l.perLayer(s.base(l))
			}
		}
		tracedOps = append(tracedOps, l.traced...)
		set.Workloads = append(set.Workloads, r)
	}

	fmt.Fprintf(stdout, "machine: %s, %s; seed %d, scale %g\n", set.Machine, set.Go, set.Seed, set.Scale)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tq1\tq3\tn\tunit")
	for _, r := range set.Workloads {
		for _, m := range append(r.EndToEnd, r.PerLayer...) {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", r.Workload, m.Name, m.Value, m.Q1, m.Q3, len(m.Samples), m.Unit)
		}
		fmt.Fprintf(tw, "%s\tops_failed/ops_attempted\t%d/%d\t\t\t\t\n", r.Workload, r.Failed, r.Attempted)
	}
	tw.Flush()

	if s.opt.out != "" {
		if err := writeJSON(s.opt.out, set); err != nil {
			fmt.Fprintln(s.stderr, "benchmark:", err)
			failed++
		}
	}
	if s.opt.trace {
		if err := writeSpans(filepath.Join(s.opt.traceDir, "spans.jsonl"), tracedOps); err != nil {
			fmt.Fprintln(s.stderr, "benchmark:", err)
			failed++
		}
	}

	// The driver's line: the end-to-end metrics with tracing off, the
	// per-layer metrics with it on. With several workloads a metric is
	// named workload/metric.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, map[string]value{}}
	for _, r := range set.Workloads {
		metrics := r.EndToEnd
		if s.opt.trace {
			metrics = r.PerLayer
		}
		for _, m := range metrics {
			name := m.Name
			if len(set.Workloads) > 1 {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(s.stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// machineLine names the host the numbers were taken on.
func machineLine() string {
	model := "unknown cpu"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%d vCPU %s, %s/%s", runtime.NumCPU(), model, runtime.GOOS, runtime.GOARCH)
}
