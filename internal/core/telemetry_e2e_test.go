package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/ssparse"
	"supersim/internal/telemetry"
	"supersim/internal/workload/apps"
)

// runForSamples builds and runs one simulation from doc (plus overrides) and
// returns the sampled-transaction log bytes — the full per-message record
// stream ssparse consumes — plus the flit conservation totals.
func runForSamples(t *testing.T, doc string, overrides []string) (sampleLog []byte, injected, retired uint64, sm *Simulation) {
	t.Helper()
	cfg := config.MustParse(doc)
	if err := cfg.ApplyOverrides(overrides); err != nil {
		t.Fatal(err)
	}
	sm = Build(cfg)
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	blast := sm.Workload.App(0).(*apps.Blast)
	var buf bytes.Buffer
	if err := ssparse.Write(&buf, blast.Stats()); err != nil {
		t.Fatal(err)
	}
	n := sm.flitCounts()
	return buf.Bytes(), n.sent, n.received, sm
}

// TestTelemetryObservationOnly is the end-to-end determinism gate for the
// telemetry subsystem: the same seeded simulation run with snapshotting and
// span recording fully enabled must produce a byte-identical sampled-transaction
// log (every message's create/receive times, latencies, and hop counts) and
// identical flit conservation totals as the run with telemetry disabled.
//
// Event counts and the final tick are deliberately NOT compared: telemetry's
// periodic snapshot is a daemon event, so the executed-event total includes it
// by design. What must not move is anything the simulation computes.
func TestTelemetryObservationOnly(t *testing.T) {
	gc := goldenCases()[0] // torus tornado
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "telemetry.jsonl")
	spansPath := filepath.Join(dir, "spans.jsonl")

	// The instrumented run enables snapshotting and span recording together.
	base, baseInj, baseRet, _ := runForSamples(t, gc.doc, nil)
	tele, teleInj, teleRet, sm := runForSamples(t, gc.doc, []string{
		"simulation.telemetry.enabled=bool=true",
		"simulation.telemetry.bin=uint=250",
		"simulation.telemetry.snapshot_file=string=" + snapPath,
		"simulation.telemetry.spans_file=string=" + spansPath,
		"simulation.telemetry.spans_sample=float=0.5",
	})
	if sm.Telemetry == nil {
		t.Fatal("telemetry run did not attach telemetry")
	}

	if !bytes.Equal(base, tele) {
		t.Errorf("sampled-transaction logs differ between telemetry-off (%d bytes) and telemetry-on (%d bytes) runs",
			len(base), len(tele))
	}
	if baseInj != teleInj || baseRet != teleRet {
		t.Errorf("flit conservation totals differ: off=%d/%d on=%d/%d",
			baseInj, baseRet, teleInj, teleRet)
	}

	// The telemetry run must also have produced usable artifacts: a parseable
	// JSONL stream whose baseline bin covers channels, routers, interfaces and
	// the workload.
	sf, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	metrics := map[string]bool{}
	records := 0
	if err := telemetry.ReadRecords(sf, func(rec telemetry.Record) error {
		metrics[rec.Metric] = true
		records++
		return nil
	}); err != nil {
		t.Fatalf("snapshot stream unreadable: %v", err)
	}
	if records == 0 {
		t.Fatal("snapshot stream is empty")
	}
	for _, m := range []string{"chan_flits", "flits_routed", "iface_flits_sent", "offered_flits", "delivered_flits", "msg_latency"} {
		if !metrics[m] {
			t.Errorf("snapshot stream missing metric %q", m)
		}
	}

	// The spans stream must be valid and exact, and its histograms must have
	// reached the registry snapshot stream (the critical-path report).
	spf, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer spf.Close()
	spanRecs := uint64(0)
	if _, err := telemetry.ReadSpans(spf, func(rec telemetry.SpanRecord) error {
		spanRecs++ // ReadSpans rejects an inexact record
		return nil
	}); err != nil {
		t.Fatalf("spans stream unreadable: %v", err)
	}
	if spanRecs == 0 {
		t.Fatal("no span records at 50% sampling")
	}
	if spanRecs != sm.Telemetry.Spans().Records() {
		t.Errorf("spans stream has %d records, recorder counted %d", spanRecs, sm.Telemetry.Spans().Records())
	}
	for _, m := range []string{"span_e2e", "span_queue", "span_eject", "span_wire", "span_vc_alloc"} {
		if !metrics[m] {
			t.Errorf("snapshot stream missing span metric %q", m)
		}
	}
}

// TestTelemetryProgressDoc checks the run-progress document reflects a
// completed run: final phase "done" and a tick/metric population consistent
// with the simulation that produced it.
func TestTelemetryProgressDoc(t *testing.T) {
	gc := goldenCases()[0]
	_, _, _, sm := runForSamples(t, gc.doc, []string{
		"simulation.telemetry.enabled=bool=true",
		"simulation.telemetry.bin=uint=500",
	})
	p := sm.Telemetry.ProgressDoc()
	if p.Phase != "done" {
		t.Fatalf("final phase = %q, want done", p.Phase)
	}
	if p.Tick == 0 || p.Events == 0 || p.Metrics == 0 {
		t.Fatalf("progress document not populated: %+v", p)
	}
}

// TestRemovedKeys pins how a settings document written for a removed
// mechanism builds. trace_file asked for the flit tracer's output, which this
// build cannot write, so BuildE fails and names the replacement. trace_sample
// (set by earlier command lines on every telemetry run), workers (the
// sharded engine's worker count) and verify.* (the opt-in verifier's switch
// and watchdog period; its checks now run in every simulation) are read
// nowhere: old snapshots embed them, so a document carrying any of them must
// reproduce the golden fingerprint, and a snapshot whose embedded settings
// carry it must restore to the same result.
func TestRemovedKeys(t *testing.T) {
	gc := goldenCases()[0]
	const telemetryOn = "simulation.telemetry.enabled=bool=true"
	for _, c := range []struct {
		name      string
		overrides []string
		wantErr   []string // empty = builds and runs
	}{
		{"trace_file rejected", []string{telemetryOn, "simulation.telemetry.trace_file=string=trace.json"},
			[]string{"trace_file", "spans_file", "ssparse -spans", "-chrome"}},
		{"trace_sample ignored", []string{telemetryOn, "simulation.telemetry.trace_sample=float=0.5"}, nil},
		{"workers ignored", []string{"simulation.workers=uint=2"}, nil},
		{"verify.enabled true ignored", []string{"simulation.verify.enabled=bool=true"}, nil},
		{"verify.enabled false ignored", []string{"simulation.verify.enabled=bool=false"}, nil},
		{"verify.watchdog_epoch ignored", []string{"simulation.verify.watchdog_epoch=uint=10"}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.MustParse(gc.doc)
			if err := cfg.ApplyOverrides(c.overrides); err != nil {
				t.Fatal(err)
			}
			sm, err := BuildE(cfg)
			if c.wantErr == nil {
				if err != nil {
					t.Fatal(err)
				}
				var snaps [][]byte
				res, err := sm.RunCheckpointed(checkpointEvery, func(_ sim.Tick, data []byte) error {
					snaps = append(snaps, append([]byte(nil), data...))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				want := loadGolden(t, gc)
				if got := goldenFingerprint(t, gc, sm, res); !reflect.DeepEqual(got, want) {
					t.Fatalf("run diverged from golden:\ngot:  %+v\nwant: %+v", got, want)
				}
				if got := resumeFingerprint(t, gc, snaps[len(snaps)/2]); !reflect.DeepEqual(got, want) {
					t.Fatalf("restored run diverged from golden:\ngot:  %+v\nwant: %+v", got, want)
				}
				return
			}
			if err == nil {
				t.Fatal("BuildE accepted the document")
			}
			for _, want := range c.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestRunReturnsTelemetryCloseError: a spans stream whose final flush fails
// leaves a truncated file, so a run that otherwise succeeded must return the
// error rather than exit cleanly. The sampling keeps the stream inside the
// recorder's write buffer, so the first write to the full device is the flush
// at Close.
func TestRunReturnsTelemetryCloseError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	gc := goldenCases()[0]
	for _, c := range []struct {
		name string
		run  func(sm *Simulation) (Result, error)
	}{
		{"Run", (*Simulation).Run},
		{"RunCheckpointed", func(sm *Simulation) (Result, error) {
			return sm.RunCheckpointed(500, func(sim.Tick, []byte) error { return nil })
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.MustParse(gc.doc)
			if err := cfg.ApplyOverrides([]string{
				"simulation.telemetry.enabled=bool=true",
				"simulation.telemetry.spans_file=string=/dev/full",
				"simulation.telemetry.spans_sample=float=0.05",
			}); err != nil {
				t.Fatal(err)
			}
			sm := Build(cfg)
			_, err := c.run(sm)
			if err == nil || !strings.Contains(err.Error(), "telemetry output") {
				t.Fatalf("run error = %v, want the failed spans flush", err)
			}
			if sm.Telemetry.Spans().Records() == 0 {
				t.Fatal("no span records: the stream never reached the device")
			}
		})
	}
}

// TestLiveScrapeDuringRun holds the live endpoint's guarantee: the registry
// and the progress document can be read while the simulation runs. One
// goroutine renders the Prometheus exposition and reads the progress
// document in a loop while a run with full-sample spans folds histograms,
// and every scraped histogram's _count must equal its +Inf bucket, which a
// histogram copied field by field mid-observation would break. Under the
// race detector (make race) it also checks the scrape for data races.
func TestLiveScrapeDuringRun(t *testing.T) {
	cfg := config.MustParse(goldenCases()[0].doc)
	if err := cfg.ApplyOverrides(probesOn); err != nil {
		t.Fatal(err)
	}
	sm := Build(cfg)
	reg := sm.Telemetry.Registry()
	done := make(chan struct{})
	first := make(chan struct{})
	scrapes := make(chan int)
	var scrapeErr error
	go func() {
		n := 0
		defer func() { scrapes <- n }()
		for {
			var b bytes.Buffer
			if err := reg.WritePrometheus(&b); err != nil {
				scrapeErr = err
				return
			}
			sm.Telemetry.ProgressDoc()
			if scrapeErr = histogramsConsistent(b.String()); scrapeErr != nil {
				return
			}
			if n++; n == 1 {
				close(first)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	<-first
	_, err := sm.Run()
	close(done)
	n := <-scrapes
	if err != nil {
		t.Fatal(err)
	}
	if scrapeErr != nil {
		t.Fatalf("scrape %d: %v", n+1, scrapeErr)
	}
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "supersim_span_e2e_count") {
		t.Fatal("the run folded no span histogram")
	}
	t.Logf("%d scrapes during the run", n)
}

// histogramsConsistent checks that every histogram of a Prometheus
// exposition has a _count equal to its cumulative +Inf bucket.
func histogramsConsistent(text string) error {
	inf, count := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		series, val := line[:sp], line[sp+1:]
		if s, ok := strings.CutSuffix(series, `,le="+Inf"}`); ok {
			inf[strings.Replace(s, "_bucket{", "{", 1)+"}"] = val
		} else if i := strings.Index(series, "_count{"); i >= 0 {
			count[series[:i]+series[i+len("_count"):]] = val
		}
	}
	for k, v := range inf {
		if count[k] != v {
			return fmt.Errorf("histogram %s: +Inf bucket %s, _count %q", k, v, count[k])
		}
	}
	return nil
}
