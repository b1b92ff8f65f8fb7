package manifest

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supersim/internal/config"
)

func testCfg(t testing.TB) *config.Settings {
	t.Helper()
	cfg, err := config.Parse([]byte(`{
		"simulation": {"seed": 7},
		"network": {"topology": "torus"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestHashConfigCanonical(t *testing.T) {
	// Key order must not matter: the hash is over the sorted JSON rendering.
	a, err := config.Parse([]byte(`{"simulation": {"seed": 7}, "network": {"topology": "torus"}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := config.Parse([]byte(`{"network": {"topology": "torus"}, "simulation": {"seed": 7}}`))
	if err != nil {
		t.Fatal(err)
	}
	if HashConfig(a) != HashConfig(b) {
		t.Fatal("hash depends on key order")
	}
	c := a.Clone()
	c.Set("simulation.seed", 8)
	if HashConfig(a) == HashConfig(c) {
		t.Fatal("hash insensitive to a content change")
	}
	if len(HashConfig(a)) != 64 {
		t.Fatalf("hash %q is not sha256 hex", HashConfig(a))
	}
}

func TestNewFillsProvenance(t *testing.T) {
	m := New(testCfg(t))
	if m.Schema != Schema || m.Version != Version {
		t.Fatalf("schema header %q/%d", m.Schema, m.Version)
	}
	if m.Seed != 7 {
		t.Fatalf("seed %d", m.Seed)
	}
	for _, k := range []string{"manifest", "snapshot", "spans", "tasks"} {
		if m.SchemaVersions[k] == 0 {
			t.Fatalf("schema version %q missing: %v", k, m.SchemaVersions)
		}
	}
}

// TestLoadAcceptsRemovedWorkersField: manifests written before the sharded
// engine was removed carry a "workers" field; they must still load.
func TestLoadAcceptsRemovedWorkersField(t *testing.T) {
	m, err := Load(strings.NewReader(`{"schema":"supersim-manifest","version":1,"seed":7,"workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 7 {
		t.Fatalf("seed %d, want 7", m.Seed)
	}
}

func TestRoundtripAndVerify(t *testing.T) {
	dir := t.TempDir()
	tel := filepath.Join(dir, "tel.jsonl")
	if err := os.WriteFile(tel, []byte("{\"t\":0}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := New(testCfg(t))
	m.SimTicks, m.Events = 1000, 42
	m.Metrics = map[string]float64{"latency_p99": 123.5}
	m.Labels = map[string]string{"point": "CL=1"}
	if err := m.AddArtifact("telemetry", tel); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigHash != m.ConfigHash || got.SimTicks != 1000 || got.Events != 42 {
		t.Fatalf("roundtrip lost fields: %+v", got)
	}
	if got.Metrics["latency_p99"] != 123.5 || got.Labels["point"] != "CL=1" {
		t.Fatalf("roundtrip lost metrics/labels: %+v", got)
	}
	if len(got.Artifacts) != 1 || got.Artifacts[0].Path != "tel.jsonl" || got.Artifacts[0].Bytes != 8 {
		t.Fatalf("artifact %+v", got.Artifacts)
	}
	if err := got.VerifyArtifacts(dir); err != nil {
		t.Fatal(err)
	}

	// Tampering must be detected: content change, then size change, then a
	// missing file.
	if err := os.WriteFile(tel, []byte("{\"t\":9}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := got.VerifyArtifacts(dir); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("content tamper not detected: %v", err)
	}
	if err := os.WriteFile(tel, []byte("longer than before\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := got.VerifyArtifacts(dir); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("size tamper not detected: %v", err)
	}
	os.Remove(tel)
	if err := got.VerifyArtifacts(dir); err == nil {
		t.Fatal("missing artifact not detected")
	}
}

func TestDeterministicBytesWithoutWallFields(t *testing.T) {
	// With wall-clock fields unset (the sweep path), two manifests of the
	// same run are byte-identical.
	render := func() []byte {
		m := New(testCfg(t))
		m.SimTicks, m.Events = 500, 10
		m.Metrics = map[string]float64{"accepted": 0.25, "latency_mean": 9}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("manifest bytes differ:\n%s\n---\n%s", a, b)
	}
	if bytes.Contains(a, []byte("started_at")) || bytes.Contains(a, []byte("wall_sec")) {
		t.Fatal("unset wall-clock fields must be omitted")
	}
}

func TestLoadRejects(t *testing.T) {
	for name, in := range map[string]string{
		"empty":       "",
		"bad schema":  `{"schema": "other", "version": 1}`,
		"bad version": `{"schema": "supersim-manifest", "version": 99}`,
	} {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Load accepted %q", name, in)
		}
	}
}

func TestAddArtifactMissingFile(t *testing.T) {
	m := New(testCfg(t))
	if err := m.AddArtifact("log", filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("AddArtifact accepted a missing file")
	}
}

// FuzzManifestLoad feeds arbitrary bytes to Load: a manifest is outside input
// (sweeps and tools read ones written by other builds), so it must load or
// fail with an error, never panic, and whatever loads must write and load
// again. Seeds are a written manifest, a committed sweep manifest, their
// truncations and headers of the wrong schema or version.
func FuzzManifestLoad(f *testing.F) {
	var written bytes.Buffer
	m := New(testCfg(f))
	m.Labels = map[string]string{"point": "CL=1"}
	m.Metrics = map[string]float64{"latency_p99": 123.5}
	m.Artifacts = []Artifact{{Role: "log", Path: "tx.log", SHA256: strings.Repeat("0", 64), Bytes: 7}}
	if err := m.Write(&written); err != nil {
		f.Fatal(err)
	}
	committed, err := os.ReadFile("../sweep/testdata/golden_manifest_CL=4.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, doc := range [][]byte{written.Bytes(), committed} {
		f.Add(doc)
		f.Add(doc[:len(doc)/2])
	}
	f.Add([]byte(`{"schema":"supersim-tasks","version":1}`))
	f.Add([]byte(`{"schema":"supersim-manifest","version":2}`))
	f.Add([]byte(`{"schema":"supersim-manifest","version":1,"seed":-1}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("a loaded manifest does not load again: %v", err)
		}
	})
}
