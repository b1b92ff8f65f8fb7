package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
)

// The round-trip and fuzz tests seed themselves from the code under test, so
// they cannot see a format change that save and load make together. This
// file pins the schema-v3 bytes themselves: the length and SHA-256 of a
// mid-run snapshot of every golden case (five topologies under IQ routers,
// then the torus under OQ and IOQ), with verification, telemetry
// and full-sample span recording on so every section carries state. The
// hashes were recorded when v3 gave each router one pending event for its
// output drains and one for its route completions, and kept only the
// credit-sensor history that routing reads; regenerate
// (SUPERSIM_UPDATE_GOLDEN=1) only together with a snapshot.Version bump.

// pinnedTick is the checkpoint the hashes are taken at: the middle of the
// sampling window, with traffic in flight in every layer.
const pinnedTick = 1000

// pinnedSnapshot is one committed record of snapshots.json.
type pinnedSnapshot struct {
	Name string `json:"name"`
	Tick uint64 `json:"tick"`
	// Bytes and SHA256 cover the whole serial snapshot.
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
	// StateSHA256 covers everything after the embedded settings document,
	// with telemetry off: the state that a settings key read nowhere must
	// leave unchanged (TestRemovedKeys).
	StateBytes  int    `json:"state_bytes"`
	StateSHA256 string `json:"state_sha256"`
}

// snapshotAt runs the document to pinnedTick under RunCheckpointed and
// returns the snapshot taken there.
func snapshotAt(t *testing.T, doc string, overrides []string) []byte {
	t.Helper()
	cfg := config.MustParse(doc)
	if err := cfg.ApplyOverrides(overrides); err != nil {
		t.Fatal(err)
	}
	sm := Build(cfg)
	var out []byte
	if _, err := sm.RunCheckpointed(checkpointEvery, func(tick sim.Tick, data []byte) error {
		if tick == pinnedTick {
			out = append([]byte(nil), data...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatalf("no checkpoint at tick %d", pinnedTick)
	}
	return out
}

// afterConfig strips the header and the CFG section (magic, version, tag,
// settings blob) from a snapshot.
func afterConfig(t *testing.T, data []byte) []byte {
	t.Helper()
	rest := data[len(snapshot.Magic):]
	skip := func(prefixed bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			t.Fatal("malformed snapshot prefix")
		}
		rest = rest[n:]
		if prefixed {
			rest = rest[v:]
		}
	}
	skip(false) // version
	skip(true)  // "CFG"
	skip(true)  // settings document
	return rest
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// probesOn turns on telemetry with a short bin and full-sample spans, so the
// TEL section carries every kind of registry state.
var probesOn = []string{
	"simulation.telemetry.enabled=bool=true",
	"simulation.telemetry.bin=uint=250",
	"simulation.telemetry.spans_sample=float=1.0",
}

func TestSnapshotBytesPinned(t *testing.T) {
	path := filepath.Join("testdata", "golden", "snapshots.json")
	var got []pinnedSnapshot
	for _, gc := range goldenCases() {
		full := snapshotAt(t, gc.doc, probesOn)
		state := afterConfig(t, snapshotAt(t, gc.doc, nil))
		got = append(got, pinnedSnapshot{
			Name: gc.name, Tick: pinnedTick,
			Bytes: len(full), SHA256: digest(full),
			StateBytes: len(state), StateSHA256: digest(state),
		})
	}
	if os.Getenv(updateEnv) != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pinned snapshots (run with %s=1 to create): %v", updateEnv, err)
	}
	var want []pinnedSnapshot
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pinned cases, %s has %d", len(got), path, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("snapshot bytes changed without a schema version bump:\ngot:  %+v\nwant: %+v", got[i], want[i])
		}
	}
}
