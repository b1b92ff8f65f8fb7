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

// TestRestoreRejectsVersion1 pins the one decode path: schema v1 stored the
// pool's hit count and the message generations, and this build reads v2 only.
func TestRestoreRejectsVersion1(t *testing.T) {
	data := smallSnapshot(t)
	v1 := append([]byte(snapshot.Magic), 1)
	v1 = append(v1, data[len(snapshot.Magic)+1:]...)
	const want = "unsupported schema version 1 (this build reads version 2)"
	if _, _, err := Restore(v1, 0); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v1-headed snapshot: err = %v, want %q", err, want)
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
