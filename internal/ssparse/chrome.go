package ssparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"supersim/internal/telemetry"
)

// WriteChrome renders a spans JSONL stream as a Chrome trace-event JSON
// document (chrome://tracing, Perfetto) and returns the number of messages
// rendered. Records stream straight through: nothing is aggregated or held.
//
// Each message is one async slice (cat "msg", id = message ID, pid = app,
// tid = source terminal) spanning [t0, t0+e2e]. Nested in it, laid back to
// back in pipeline order, are its non-zero stages: queue, then at each hop i
// "h<i> vc_alloc", "h<i> sw_alloc", "h<i> xbar", "h<i> output" and
// "h<i> wire", then eject. The recorder charges each stage at most once per
// hop and in that order, and the stages sum to e2e, so the nested slices tile
// the message's slice exactly. Timestamps are simulated ticks (the viewers
// show them as µs). The records hold one tracked flit per message (the head
// flit of packet 0) and only durations, so per-flit times and the other
// flits are not in the timeline.
func WriteChrome(w io.Writer, r io.Reader) (int, error) {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	sep := "\n"
	n := 0
	_, err := telemetry.ReadSpans(r, func(rec telemetry.SpanRecord) error {
		event := func(ph byte, name string, ts uint64) {
			fmt.Fprintf(bw, `%s{"ph":"%c","cat":"msg","name":"%s","id":%d,"pid":%d,"tid":%d,"ts":%d}`,
				sep, ph, name, rec.Msg, rec.App, rec.Src, ts)
			sep = ",\n"
		}
		t := rec.T0
		stage := func(name string, d uint64) {
			if d == 0 {
				return
			}
			event('b', name, t)
			t += d
			event('e', name, t)
		}
		event('b', "msg", rec.T0)
		stage("queue", rec.Queue)
		for i := range rec.PerHop {
			h, hop := &rec.PerHop[i], "h"+strconv.Itoa(i)+" "
			stage(hop+"vc_alloc", h.VCAlloc)
			stage(hop+"sw_alloc", h.SWAlloc)
			stage(hop+"xbar", h.Xbar)
			stage(hop+"output", h.Output)
			stage(hop+"wire", h.Wire)
		}
		stage("eject", rec.Eject)
		event('e', "msg", rec.T0+rec.E2E)
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	bw.WriteString("\n]}\n")
	return n, bw.Flush()
}
