package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
)

// smallSnapshot captures one snapshot of the smallest golden topology.
func smallSnapshot(t *testing.T) []byte {
	t.Helper()
	gc := goldenCases()[4] // parking_lot
	sm := Build(config.MustParse(gc.doc))
	var seed []byte
	if _, err := sm.RunCheckpointed(checkpointEvery, func(tick sim.Tick, data []byte) error {
		if seed == nil {
			seed = append([]byte(nil), data...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seed == nil {
		t.Fatal("no snapshot captured")
	}
	return seed
}

func TestConfigAccessor(t *testing.T) {
	cfg := config.MustParse(goldenCases()[4].doc)
	sm := Build(cfg)
	if sm.Config() != cfg {
		t.Fatal("Config() does not return the build settings")
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	data := smallSnapshot(t)

	if _, _, err := Restore([]byte("not a snapshot at all"), 0); err == nil {
		t.Fatal("garbage header restored without error")
	}

	// Corrupt the embedded config document (it sits right after the header
	// and section tag, as a length-prefixed blob) so Build's input is invalid
	// JSON: Restore must report a config error, not panic.
	idx := bytes.Index(data, []byte(`"topology"`))
	if idx < 0 {
		t.Fatal("embedded config not found in snapshot")
	}
	bad := append([]byte(nil), data...)
	bad[idx] = 'X'
	if _, _, err := Restore(bad, 0); err == nil ||
		!strings.Contains(err.Error(), "config") {
		t.Fatalf("corrupted config: err = %v", err)
	}

	// Every strict prefix must fail cleanly, whichever section it lands in.
	for n := 0; n < len(data); n += 1 + len(data)/64 {
		if _, _, err := Restore(data[:n], 0); err == nil {
			t.Fatalf("truncation to %d of %d bytes restored without error", n, len(data))
		}
	}
}

// TestRestoreRejectsVersion2 pins the one decode path: schema v2 stored the
// routers' per-port drain flags and delay-line scheduled bits and both of a
// credit sensor's histories, and this build reads v3 only.
func TestRestoreRejectsVersion2(t *testing.T) {
	data := smallSnapshot(t)
	v2 := append([]byte(snapshot.Magic), 2)
	v2 = append(v2, data[len(snapshot.Magic)+1:]...)
	const want = "unsupported schema version 2 (this build reads version 3)"
	if _, _, err := Restore(v2, 0); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v2-headed snapshot: err = %v, want %q", err, want)
	}
}

func TestRunCheckpointedErrors(t *testing.T) {
	build := func(workers int) *Simulation {
		cfg := config.MustParse(goldenCases()[4].doc)
		if workers > 1 {
			cfg.Set("simulation.workers", uint64(workers))
		}
		return Build(cfg)
	}

	if _, err := build(1).RunCheckpointed(0, func(sim.Tick, []byte) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "interval") {
		t.Fatalf("zero interval: err = %v", err)
	}

	// A sink failure aborts the run, on both the serial and sharded paths.
	for _, workers := range []int{1, 2} {
		sm := build(workers)
		boom := fmt.Errorf("sink failed")
		if _, err := sm.RunCheckpointed(checkpointEvery, func(sim.Tick, []byte) error { return boom }); err != boom {
			t.Fatalf("workers=%d: err = %v, want the sink's error", workers, err)
		}
	}
}
