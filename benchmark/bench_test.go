package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The test binary doubles as the child: a session started by a test
// re-executes it with childEnv set, exactly as the real binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		childMain(spec)
		return
	}
	os.Exit(m.Run())
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload once untraced and once traced at a fiftieth
// of its simulated duration and checks what the benchmark promises about its
// own output. clos_oq cannot shrink below the time its last sampled flit
// needs to cross the network, so this takes about fifteen seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve simulations")
	}
	dir := t.TempDir()
	setPath := filepath.Join(dir, "set.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-scale", "0.02", "-reps", "1", "-trace", "1",
		"-tracedir", dir, "-out", setPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []contractMetric        `json:"end_to_end"`
		PerLayer  []contractMetric        `json:"per_layer"`
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	var set resultSet
	if err := readJSON(setPath, &set); err != nil {
		t.Fatal(err)
	}

	if len(set.Workloads) != len(bench.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(set.Workloads), len(bench.Workloads))
	}
	fingerprints := map[string]string{}
	for i, r := range set.Workloads {
		if r.Workload != bench.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, r.Workload, bench.Workloads[i].Name)
		}
		if r.Failed != 0 || r.Attempted != 2 {
			t.Errorf("%s: %d of %d ops failed, want 0 of 2", r.Workload, r.Failed, r.Attempted)
		}
		checkNames(t, r.Workload, "end_to_end", bench.EndToEnd, r.EndToEnd)
		checkNames(t, r.Workload, "per_layer", bench.PerLayer, r.PerLayer)
		for _, m := range r.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want positive", r.Workload, m.Name, m.Value)
			}
		}
		sum := 0.0
		for _, b := range cpuBuckets {
			sum += findMetric(r.PerLayer, b+".cpu_share").Value
		}
		if math.Abs(sum-100) > 1 {
			t.Errorf("%s: cpu shares sum to %.2f%%, want 100±1", r.Workload, sum)
		}
		if len(r.Ops) > 0 {
			fingerprints[r.Workload] = r.Ops[0].Fingerprint
		}
	}
	for _, w := range workloads {
		if fingerprints[w.name] == "" || fingerprints[w.name] != fingerprints[w.base] {
			t.Errorf("%s printed fingerprint %q, its base %s printed %q", w.name, fingerprints[w.name], w.base, fingerprints[w.base])
		}
	}
	if fingerprints["fb_ioq"] == fingerprints["torus_iq"] {
		t.Error("fb_ioq and torus_iq print the same fingerprint")
	}

	// The last line of standard output is the driver's object; with -trace 1
	// it carries the per-layer metrics of every workload.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !line.Correct || line.Attempted != 12 || line.Failed != 0 || len(line.Metrics) != 6*len(bench.PerLayer) {
		t.Errorf("last line: correct %v, attempted %d, failed %d, %d metrics", line.Correct, line.Attempted, line.Failed, len(line.Metrics))
	}

	checkSpans(t, filepath.Join(dir, "spans.jsonl"))
}

func checkNames(t *testing.T, workload, kind string, want []contractMetric, got []metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d %s metrics, BENCHMARK.json names %d", workload, len(got), kind, len(want))
	}
	for _, w := range want {
		m := findMetric(got, w.Name)
		switch {
		case m == nil:
			t.Errorf("%s: %s metric %s is not emitted", workload, kind, w.Name)
		case m.Unit != w.Unit || m.Unit == "":
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, w.Name, m.Unit, w.Unit)
		case len(m.Samples) == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s has samples %v, median %v", workload, w.Name, m.Samples, m.Value)
		}
	}
}

// checkSpans verifies that each op's spans form a tree rooted at "op", that
// children lie within their parents, and that no self time is negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type opKey struct {
		workload string
		rep      int
	}
	ops := map[opKey][]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("spans.jsonl: %v", err)
		}
		k := opKey{s.Workload, s.Rep}
		ops[k] = append(ops[k], s)
	}
	if len(ops) != len(workloads) {
		t.Errorf("spans of %d ops, want %d", len(ops), len(workloads))
	}
	for k, spans := range ops {
		names := map[string]bool{}
		for i, s := range spans {
			names[s.Name] = true
			if s.ID != i {
				t.Fatalf("%v: span %d has id %d", k, i, s.ID)
			}
			if s.SelfNS < 0 || s.EndNS < s.StartNS {
				t.Errorf("%v: span %s: start %d end %d self %d", k, s.Name, s.StartNS, s.EndNS, s.SelfNS)
			}
			if i == 0 {
				if s.Parent != -1 || s.Name != "op" {
					t.Errorf("%v: first span is %s with parent %d, want the root op", k, s.Name, s.Parent)
				}
				continue
			}
			if s.Parent < 0 || s.Parent >= i {
				t.Fatalf("%v: span %s has parent %d, want an earlier span", k, s.Name, s.Parent)
			}
			if p := spans[s.Parent]; s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Errorf("%v: span %s [%d, %d] lies outside its parent %s [%d, %d]", k, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
			}
		}
		want := []string{"setup", "config", "core.Build", "run", "extract", "Summarize", "fingerprint", "replay"}
		if k.workload == "fb_ioq.ckpt" {
			want = append(want, "core.RunCheckpointed", "core.Snapshot", "core.Restore", "core.Run")
		}
		for _, n := range want {
			if !names[n] {
				t.Errorf("%v: no %s span", k, n)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string][2]string{
		"supersim/internal/sim.(*eventHeap).pop":   {"sim", ""},
		"supersim/internal/sim.(*Engine).runShard": {"engine", ""},
		"runtime.futex":                                     {"engine", ""},
		"runtime.mallocgc":                                  {"runtime", ""},
		"aeshashbody":                                       {"runtime", ""},
		"supersim/internal/router.(*IOQ).drain":             {"router", "router.ioq"},
		"supersim/internal/router.(*OQ).ProcessEvent":       {"router", "router.oq"},
		"supersim/internal/router.allocateVCs":              {"router", ""},
		"supersim/internal/network/hyperx.(*hxAlg).Route":   {"network", ""},
		"supersim/internal/workload/apps.(*Blast).generate": {"workload", ""},
		"supersim/internal/verify.(*Verifier).Check":        {"other", ""},
		"math/rand/v2.(*PCG).next":                          {"other", ""},
	} {
		if b, p := bucketOf(fn); b != want[0] || p != want[1] {
			t.Errorf("bucketOf(%s) = %s, %s; want %s, %s", fn, b, p, want[0], want[1])
		}
	}
}

// TestCompare feeds -compare a base set and three candidates: the same
// numbers, a slower run_s, and a run_s too scattered to judge.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	contractPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(contractPath, []byte(`{"end_to_end": [
		{"name": "run_s", "better": "lower", "bound": 0.1},
		{"name": "setup_s", "better": "lower", "bound": 0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, runS, setupS []float64, failed int) string {
		set := resultSet{Seed: 1, Scale: 1, Workloads: []laneReport{{
			Workload: "fb_ioq", Attempted: 5, Failed: failed,
			EndToEnd: []metric{newMetric("run_s", "s", runS), newMetric("setup_s", "s", setupS)},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	setup := []float64{0.004, 0.005, 0.004, 0.006, 0.005}
	base := write("base.json", steady, setup, 0)
	for _, c := range []struct {
		name    string
		path    string
		code    int
		verdict string
	}{
		{"same", write("same.json", steady, []float64{0.008, 0.009, 0.008, 0.01, 0.009}, 0), 0, "ok"}, // setup doubled, but under the floor
		{"slower", write("slower.json", []float64{1.20, 1.21, 1.19, 1.22, 1.18}, setup, 0), 1, "regressed"},
		{"scattered", write("scattered.json", []float64{0.8, 1.3, 1.0, 0.7, 1.2}, setup, 0), 0, "unresolved"},
		{"failing", write("failing.json", steady, setup, 1), 1, "regressed"},
	} {
		var stdout, stderr bytes.Buffer
		code := compareSets(contractPath, base, c.path, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.verdict) {
			t.Errorf("%s: exit code %d, want %d with a %q row:\n%s%s", c.name, code, c.code, c.verdict, stdout.String(), stderr.String())
		}
		if c.verdict == "ok" && (strings.Contains(stdout.String(), "regressed") || strings.Contains(stdout.String(), "unresolved")) {
			t.Errorf("%s: want every row ok:\n%s", c.name, stdout.String())
		}
	}
}
