package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/manifest"
	"supersim/internal/telemetry"
)

func setOf(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     map[string]bool
		workers uint
		wantErr string // empty = valid
	}{
		{"no flags", setOf(), 1, ""},
		{"spans with sample", setOf("spans", "spans-sample"), 1, ""},
		{"spans-sample alone", setOf("spans-sample"), 1, "-spans-sample"},
		{"spans-sample with only telemetry-file", setOf("telemetry-file", "spans-sample"), 1, "-spans-sample"},
		{"bin alone", setOf("telemetry-bin"), 1, "-telemetry-bin"},
		{"bin with log only", setOf("telemetry-bin", "log"), 1, "-telemetry-bin"},
		{"bin with telemetry", setOf("telemetry-bin", "telemetry"), 1, ""},
		{"bin with telemetry-file", setOf("telemetry-bin", "telemetry-file"), 1, ""},
		{"bin with telemetry-addr", setOf("telemetry-bin", "telemetry-addr"), 1, ""},
		{"bin with spans", setOf("telemetry-bin", "spans"), 1, ""},
		{"workers serial with spans", setOf("spans", "workers"), 1, ""},
		{"workers parallel", setOf("workers"), 4, ""},
		{"workers parallel with telemetry", setOf("workers", "telemetry"), 4, ""},
		// The shard-aware span recorder: -spans is accepted at any worker count
		// (per-shard lanes merge back into the serial byte stream).
		{"workers parallel with spans", setOf("spans", "workers"), 2, ""},
		{"workers parallel with telemetry-file and spans", setOf("telemetry-file", "spans", "workers"), 4, ""},
		{"checkpoint pair", setOf("checkpoint-every", "checkpoint-file"), 1, ""},
		{"checkpoint-every alone", setOf("checkpoint-every"), 1, "-checkpoint-file"},
		{"checkpoint-file alone", setOf("checkpoint-file"), 1, "-checkpoint-every"},
		{"restore alone", setOf("restore"), 1, ""},
		{"restore with workers", setOf("restore", "workers"), 4, ""},
		{"restore with checkpointing", setOf("restore", "checkpoint-every", "checkpoint-file"), 1, ""},
		{"restore with verify", setOf("restore", "verify"), 1, "-verify"},
		{"restore with telemetry", setOf("restore", "telemetry"), 1, "-telemetry"},
		{"restore with spans", setOf("restore", "spans"), 1, "-spans"},
		{"manifest alone", setOf("manifest"), 1, ""},
		// -manifest is output-only: it records the run, never changes it, so it
		// is valid even on the restore path.
		{"restore with manifest", setOf("restore", "manifest"), 1, ""},
		{"manifest with full telemetry", setOf("manifest", "telemetry", "spans"), 1, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			workers := c.workers
			if workers == 0 {
				workers = 1
			}
			err := validateFlags(c.set, workers)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want mention of %s", err, c.wantErr)
			}
		})
	}
}

func TestApplyMapsSpansFlags(t *testing.T) {
	cfg := config.New()
	o := runOpts{spansPath: "out/spans.jsonl", spansSample: 0.25, telemetryBin: 500}
	if err := o.apply(cfg); err != nil {
		t.Fatal(err)
	}
	if !cfg.BoolOr("simulation.telemetry.enabled", false) {
		t.Fatal("-spans must imply -telemetry")
	}
	if got := cfg.StringOr("simulation.telemetry.spans_file", ""); got != "out/spans.jsonl" {
		t.Fatalf("spans_file = %q", got)
	}
	if got := cfg.FloatOr("simulation.telemetry.spans_sample", -1); got != 0.25 {
		t.Fatalf("spans_sample = %v", got)
	}
}

func TestApplyMapsWorkersFlag(t *testing.T) {
	cfg := config.New()
	o := runOpts{workers: 4, telemetryBin: 1000}
	if err := o.apply(cfg); err != nil {
		t.Fatal(err)
	}
	if got := cfg.UIntOr("simulation.workers", 1); got != 4 {
		t.Fatalf("simulation.workers = %d, want 4", got)
	}
	cfg = config.New()
	o = runOpts{workers: 1, telemetryBin: 1000}
	if err := o.apply(cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Has("simulation.workers") {
		t.Fatal("-workers 1 must leave simulation.workers unset (config file wins)")
	}
}

func TestApplyWithoutSpansLeavesSettingsUnset(t *testing.T) {
	cfg := config.New()
	o := runOpts{telemetry: true, telemetryBin: 1000}
	if err := o.apply(cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Has("simulation.telemetry.spans_file") || cfg.Has("simulation.telemetry.spans_sample") {
		t.Fatal("spans settings must stay unset without -spans")
	}
}

// TestRunCheckpointAndRestore drives the full run() path with checkpointing
// enabled, then restores the final snapshot and runs the continuation — the
// CLI wiring for the import/export machinery proven in internal/core.
func TestRunCheckpointAndRestore(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	snapPath := filepath.Join(dir, "snap.ssim")
	doc := `{
	  "simulation": {"seed": 11, "verify": {"enabled": true}},
	  "network": {
	    "topology": "torus",
	    "dimensions": [2, 2],
	    "concentration": 1,
	    "channel": {"latency": 2, "period": 1},
	    "injection": {"latency": 1},
	    "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 8}
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.1,
	      "message_size": 2,
	      "max_packet_size": 2,
	      "warmup_duration": 100,
	      "sample_duration": 300,
	      "traffic": {"type": "uniform_random"}
	    }]
	  }
	}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(cfgPath, nil, runOpts{
		quiet: true, telemetryBin: 1000, spansSample: 1.0,
		checkpointEvery: 100, checkpointFile: snapPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(snapPath); err != nil || fi.Size() == 0 {
		t.Fatalf("no snapshot written: %v", err)
	}
	// The restored continuation rebuilds from the embedded settings (no config
	// file) and must complete cleanly; -workers 2 exercises the re-partition
	// override on the restore path.
	err = run("", nil, runOpts{
		quiet: true, telemetryBin: 1000, spansSample: 1.0,
		restorePath: snapPath, workers: 2, workersSet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsMismatchedCheckpointConfig covers the config-key validation on
// the run path: checkpoint_every and checkpoint_file must come together.
func TestRunRejectsMismatchedCheckpointConfig(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	doc := `{
	  "simulation": {"seed": 1, "checkpoint_every": 100},
	  "network": {
	    "topology": "parking_lot",
	    "routers": 3,
	    "channel": {"latency": 2, "period": 1},
	    "injection": {"latency": 1},
	    "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 8}
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.05,
	      "message_size": 2,
	      "max_packet_size": 2,
	      "warmup_duration": 50,
	      "sample_duration": 100,
	      "traffic": {"type": "uniform_random"}
	    }]
	  }
	}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(cfgPath, nil, runOpts{quiet: true, telemetryBin: 1000})
	if err == nil || !strings.Contains(err.Error(), "checkpoint_file") {
		t.Fatalf("error = %v, want checkpoint_file mention", err)
	}
}

// TestRunWritesSpansStream drives the full run() path with a spans file: the
// flag-mapped settings must reach the recorder and produce a parseable stream.
func TestRunWritesSpansStream(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	spansPath := filepath.Join(dir, "spans.jsonl")
	doc := `{
	  "simulation": {"seed": 7},
	  "network": {
	    "topology": "torus",
	    "dimensions": [2, 2],
	    "concentration": 1,
	    "channel": {"latency": 2, "period": 1},
	    "injection": {"latency": 1},
	    "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 8}
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.1,
	      "message_size": 2,
	      "max_packet_size": 2,
	      "warmup_duration": 100,
	      "sample_duration": 300,
	      "traffic": {"type": "uniform_random"}
	    }]
	  }
	}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(cfgPath, nil, runOpts{
		quiet: true, spansPath: spansPath, spansSample: 1.0, telemetryBin: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records := 0
	hdr, err := telemetry.ReadSpans(f, func(rec telemetry.SpanRecord) error {
		records++
		if rec.ComponentSum() != rec.E2E {
			t.Errorf("message %d decomposition inexact: %+v", rec.Msg, rec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Sample != 1.0 || records == 0 {
		t.Fatalf("spans stream: sample %v, %d records", hdr.Sample, records)
	}
}

// TestRunWritesManifest drives run() with every artifact stream enabled plus
// -manifest: the manifest must tie each artifact to the run with a digest
// that verifies against the actual files.
func TestRunWritesManifest(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	doc := `{
	  "simulation": {"seed": 7},
	  "network": {
	    "topology": "torus",
	    "dimensions": [2, 2],
	    "concentration": 1,
	    "channel": {"latency": 2, "period": 1},
	    "injection": {"latency": 1},
	    "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 8}
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.1,
	      "message_size": 2,
	      "max_packet_size": 2,
	      "warmup_duration": 100,
	      "sample_duration": 300,
	      "traffic": {"type": "uniform_random"}
	    }]
	  }
	}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "run.manifest.json")
	err := run(cfgPath, nil, runOpts{
		quiet:         true,
		logPath:       filepath.Join(dir, "log.txt"),
		spansPath:     filepath.Join(dir, "spans.jsonl"),
		telemetryFile: filepath.Join(dir, "telemetry.jsonl"),
		spansSample:   1.0, telemetryBin: 1000,
		manifestPath: manifestPath,
		flags:        map[string]string{"log": "log.txt", "spans": "spans.jsonl"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := manifest.LoadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ConfigHash) != 64 || m.Seed != 7 || m.Workers != 1 {
		t.Fatalf("provenance header %+v", m)
	}
	if m.SimTicks == 0 || m.Events == 0 {
		t.Fatalf("run results missing: %+v", m)
	}
	if m.StartedAt == "" {
		t.Fatal("started_at missing on the CLI path")
	}
	if m.Flags["log"] != "log.txt" {
		t.Fatalf("flags %+v", m.Flags)
	}
	if m.Metrics["app0_samples"] == 0 || m.Metrics["app0_latency_mean"] == 0 {
		t.Fatalf("metrics %+v", m.Metrics)
	}
	roles := map[string]bool{}
	for _, a := range m.Artifacts {
		roles[a.Role] = true
	}
	for _, want := range []string{"log", "telemetry", "spans"} {
		if !roles[want] {
			t.Fatalf("artifact role %s missing: %+v", want, m.Artifacts)
		}
	}
	if roles["checkpoint"] {
		t.Fatalf("unrequested artifacts recorded: %+v", m.Artifacts)
	}
	// Every digest must verify against the files the run actually wrote.
	if err := m.VerifyArtifacts(dir); err != nil {
		t.Fatal(err)
	}
}

// TestRunManifestDeterministicModuloWallClock: two identical runs produce
// manifests that agree on every field except the two documented wall-clock
// readings.
func TestRunManifestDeterministicModuloWallClock(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	doc := `{
	  "simulation": {"seed": 3},
	  "network": {
	    "topology": "parking_lot",
	    "routers": 3,
	    "channel": {"latency": 2, "period": 1},
	    "injection": {"latency": 1},
	    "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 8}
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.05,
	      "message_size": 2,
	      "max_packet_size": 2,
	      "warmup_duration": 50,
	      "sample_duration": 100,
	      "traffic": {"type": "uniform_random"}
	    }]
	  }
	}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	render := func(name string) []byte {
		path := filepath.Join(dir, name)
		err := run(cfgPath, nil, runOpts{
			quiet: true, telemetryBin: 1000,
			logPath:      filepath.Join(dir, "log.txt"),
			manifestPath: path,
			flags:        map[string]string{"log": "log.txt", "manifest": "run.manifest.json"},
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := manifest.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m.StartedAt, m.WallSec = "", 0
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render("a.manifest.json"), render("b.manifest.json")
	if !bytes.Equal(a, b) {
		t.Fatalf("manifests differ beyond wall-clock fields:\n%s\n---\n%s", a, b)
	}
}

// TestManifestSurvivesCheckpointRestore: a restored continuation writes a
// manifest that agrees with the uninterrupted run's on provenance and final
// results — the checkpoint round trip loses nothing the manifest records
// (events excepted: a restored run counts only post-restore events).
func TestManifestSurvivesCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	snapPath := filepath.Join(dir, "snap.ssim")
	doc := `{
	  "simulation": {"seed": 11},
	  "network": {
	    "topology": "torus",
	    "dimensions": [2, 2],
	    "concentration": 1,
	    "channel": {"latency": 2, "period": 1},
	    "injection": {"latency": 1},
	    "router": {"architecture": "input_queued", "num_vcs": 2, "input_buffer_depth": 8}
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.1,
	      "message_size": 2,
	      "max_packet_size": 2,
	      "warmup_duration": 100,
	      "sample_duration": 300,
	      "traffic": {"type": "uniform_random"}
	    }]
	  }
	}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "full.manifest.json")
	err := run(cfgPath, nil, runOpts{
		quiet: true, telemetryBin: 1000,
		checkpointEvery: 100, checkpointFile: snapPath,
		manifestPath: full,
	})
	if err != nil {
		t.Fatal(err)
	}
	restored := filepath.Join(dir, "restored.manifest.json")
	err = run("", nil, runOpts{
		quiet: true, telemetryBin: 1000,
		restorePath:  snapPath,
		manifestPath: restored,
	})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := manifest.LoadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := manifest.LoadFile(restored)
	if err != nil {
		t.Fatal(err)
	}
	if mf.ConfigHash != mr.ConfigHash {
		t.Fatalf("config hash changed across restore:\n%s\n%s", mf.ConfigHash, mr.ConfigHash)
	}
	if mf.Seed != mr.Seed || mf.Workers != mr.Workers || mf.SimTicks != mr.SimTicks {
		t.Fatalf("provenance diverged: %+v vs %+v", mf, mr)
	}
	for _, k := range []string{"sim.events_per_flit_hop", "app0_samples", "app0_latency_mean", "app0_latency_p50", "app0_latency_p99"} {
		if mf.Metrics[k] != mr.Metrics[k] {
			t.Fatalf("metric %s diverged: %v vs %v", k, mf.Metrics[k], mr.Metrics[k])
		}
	}
	// The full run recorded its final checkpoint as an artifact; the restored
	// run re-checkpointed over the same file, so re-verification must use the
	// restored manifest.
	if err := mr.VerifyArtifacts(dir); err != nil {
		t.Fatal(err)
	}
}

// TestRunReportsEventsPerFlitHop: the run prints its flit-hops and events
// per flit-hop on the "simulation complete" line, and the manifest records
// the same ratio as sim.events_per_flit_hop.
func TestRunReportsEventsPerFlitHop(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	doc := `{
	  "simulation": {"seed": 5},
	  "network": {
	    "topology": "torus",
	    "dimensions": [2, 2],
	    "concentration": 1,
	    "channel": {"latency": 2, "period": 1},
	    "injection": {"latency": 1},
	    "router": {"architecture": "input_output_queued", "num_vcs": 2, "input_buffer_depth": 8}
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.1,
	      "message_size": 2,
	      "max_packet_size": 2,
	      "warmup_duration": 100,
	      "sample_duration": 300,
	      "traffic": {"type": "uniform_random"}
	    }]
	  }
	}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "stdout.txt")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	manifestPath := filepath.Join(dir, "run.manifest.json")
	err = run(cfgPath, nil, runOpts{telemetryBin: 1000, spansSample: 1.0, manifestPath: manifestPath})
	os.Stdout = stdout
	out.Close()
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var events, ticks, hops uint64
	var ratio float64
	found := false
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "simulation complete:") {
			if _, err := fmt.Sscanf(line, "simulation complete: %d events, %d ticks, %d flit-hops, %g events per flit-hop",
				&events, &ticks, &hops, &ratio); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no simulation complete line in:\n%s", text)
	}
	if hops == 0 || events <= hops {
		t.Fatalf("%d events over %d flit-hops", events, hops)
	}
	want := float64(events) / float64(hops)
	if got := fmt.Sprintf("%.3f", want); got != fmt.Sprintf("%.3f", ratio) {
		t.Fatalf("printed ratio %v, events/flit-hops %s", ratio, got)
	}
	m, err := manifest.LoadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Events != events || m.Metrics["sim.events_per_flit_hop"] != want {
		t.Fatalf("manifest events %d, sim.events_per_flit_hop %v; printed %d events, ratio %v",
			m.Events, m.Metrics["sim.events_per_flit_hop"], events, want)
	}
}
