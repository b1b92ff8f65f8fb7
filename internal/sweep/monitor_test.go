package sweep

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"supersim/internal/config"
	"supersim/internal/manifest"
	"supersim/internal/taskrun"
)

const updateEnv = "SUPERSIM_UPDATE_GOLDEN"

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv(updateEnv) != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set %s=1 to regenerate)", err, updateEnv)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden (set %s=1 to regenerate)\ngot:\n%s\nwant:\n%s",
			name, updateEnv, got, want)
	}
}

func testClock() taskrun.Clock {
	return taskrun.FixedClock(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond)
}

func TestMonitorDocAndEndpoints(t *testing.T) {
	m := NewMonitor(testClock())
	m.RunStarted(map[string]int{"cpu": 2}, 3)
	m.TaskQueued("a", map[string]int{"cpu": 1})
	m.TaskQueued("b", map[string]int{"cpu": 1})
	m.TaskQueued("c", nil)
	m.TaskReady("a")
	m.TaskStarted("a")

	// Mid-flight: one running and holding a cpu, two pending, nothing done.
	d := m.Doc()
	if d.Tasks.Total != 3 || d.Tasks.Running != 1 || d.Tasks.Pending != 2 {
		t.Fatalf("mid-flight doc %+v", d.Tasks)
	}
	if d.Resources["cpu"].Busy != 1 || d.Resources["cpu"].Capacity != 2 {
		t.Fatalf("resource doc %+v", d.Resources)
	}
	if d.DoneFrac != 0 || d.EtaSec != 0 {
		t.Fatalf("no task finished yet, doc %+v", d)
	}

	m.TaskFinished("a", taskrun.Succeeded, nil)
	d = m.Doc()
	if d.Tasks.Succeeded != 1 || d.Resources["cpu"].Busy != 0 {
		t.Fatalf("post-finish doc %+v", d)
	}
	if d.DoneFrac < 0.33 || d.DoneFrac > 0.34 {
		t.Fatalf("done_frac %v", d.DoneFrac)
	}
	if d.EtaSec <= 0 {
		t.Fatalf("eta_sec %v with work remaining", d.EtaSec)
	}

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	for _, path := range []string{"/", "/sweep"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var got Doc
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatalf("%s: invalid JSON: %v", path, err)
		}
		resp.Body.Close()
		if got.Tasks.Total != 3 || got.Tasks.Succeeded != 1 {
			t.Fatalf("%s served %+v", path, got.Tasks)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"supersim_sweep_tasks_total", "supersim_sweep_tasks_done",
		"supersim_sweep_resource_capacity", "supersim_sweep_task_wait_ms",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, buf.String())
		}
	}
}

func TestMonitorSkippedAndCanceledLeavePending(t *testing.T) {
	m := NewMonitor(testClock())
	m.RunStarted(nil, 2)
	m.TaskQueued("skip", nil)
	m.TaskQueued("cancel", nil)
	m.TaskFinished("skip", taskrun.Skipped, nil)
	m.TaskFinished("cancel", taskrun.Canceled, nil)
	m.RunFinished()
	d := m.Doc()
	if d.Tasks.Pending != 0 || d.Tasks.Skipped != 1 || d.Tasks.Canceled != 1 {
		t.Fatalf("doc %+v", d.Tasks)
	}
	if d.DoneFrac != 1 || d.EtaSec != 0 {
		t.Fatalf("finished sweep doc %+v", d)
	}
}

// TestSweepFleetObservabilityE2E runs a real two-point sweep with a fixed
// clock and asserts every fleet artifact is byte-identical to its committed
// golden: the task journal, the per-point run manifests, and the Prometheus
// exposition of the sweep metrics. Capacity 1 serializes the permutations, so
// the whole pipeline is deterministic.
func TestSweepFleetObservabilityE2E(t *testing.T) {
	run := func(dir string) (journal, metrics []byte) {
		s := New(config.MustParse(sweepBase), 1)
		s.AddVariable(Variable{
			Name: "ChannelLatency", Short: "CL", Values: []any{4, 8},
			Apply: func(cfg *config.Settings, v any) {
				cfg.Set("network.channel.latency", v.(int))
			},
		})
		var jbuf bytes.Buffer
		j := taskrun.NewJournal(&jbuf, testClock())
		mon := NewMonitor(testClock())
		s.Probe = taskrun.Probes(j, mon)
		s.ManifestDir = dir
		points, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 2 {
			t.Fatalf("points %+v", points)
		}
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		var mbuf bytes.Buffer
		if err := mon.Registry().WritePrometheus(&mbuf); err != nil {
			t.Fatal(err)
		}
		return jbuf.Bytes(), mbuf.Bytes()
	}

	dir := t.TempDir()
	journal, metrics := run(dir)
	checkGolden(t, "golden_sweep_journal.jsonl", journal)
	checkGolden(t, "golden_sweep_metrics.prom", metrics)
	for _, id := range []string{"CL=4", "CL=8"} {
		data, err := os.ReadFile(filepath.Join(dir, id+".manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "golden_manifest_"+id+".json", data)
		m, err := manifest.LoadFile(filepath.Join(dir, id+".manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if m.Labels["point"] != id || m.Labels["ChannelLatency"] == "" {
			t.Fatalf("%s labels %+v", id, m.Labels)
		}
		if m.SimTicks == 0 || m.Events == 0 || m.Metrics["samples"] == 0 {
			t.Fatalf("%s missing run results: %+v", id, m)
		}
		if m.StartedAt != "" || m.WallSec != 0 {
			t.Fatalf("%s sweep manifest must omit wall-clock fields", id)
		}
	}
	// The two points differ only in channel latency: distinct config hashes,
	// and the slower channel must show higher mean latency.
	m4, _ := manifest.LoadFile(filepath.Join(dir, "CL=4.manifest.json"))
	m8, _ := manifest.LoadFile(filepath.Join(dir, "CL=8.manifest.json"))
	if m4.ConfigHash == m8.ConfigHash {
		t.Fatal("permutations share a config hash")
	}
	if m8.Metrics["latency_mean"] <= m4.Metrics["latency_mean"] {
		t.Fatalf("latency ordering: CL=8 %v <= CL=4 %v",
			m8.Metrics["latency_mean"], m4.Metrics["latency_mean"])
	}

	// A second identical run reproduces every byte.
	journal2, metrics2 := run(t.TempDir())
	if !bytes.Equal(journal, journal2) || !bytes.Equal(metrics, metrics2) {
		t.Fatal("fixed-clock sweep artifacts differ between identical runs")
	}
}
