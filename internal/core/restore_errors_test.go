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
// credit sensor's histories, v3 stored in-flight flits and credits in their
// channels instead of their receivers' arrival lines, v4 stored two
// timestamps per flit and an injection time per message, and Blast's packet
// rows of single-packet messages, and this build reads v5 only.
func TestRestoreRejectsVersion2(t *testing.T) {
	data := smallSnapshot(t)
	for _, old := range []byte{2, 3, 4} {
		stale := append([]byte(snapshot.Magic), old)
		stale = append(stale, data[len(snapshot.Magic)+1:]...)
		want := fmt.Sprintf("unsupported schema version %d (this build reads version 5)", old)
		if _, _, err := Restore(stale, 0); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d-headed snapshot: err = %v, want %q", old, err, want)
		}
	}
}

func TestRunCheckpointedErrors(t *testing.T) {
	build := func() *Simulation { return Build(config.MustParse(goldenCases()[4].doc)) }

	if _, err := build().RunCheckpointed(0, func(sim.Tick, []byte) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "interval") {
		t.Fatalf("zero interval: err = %v", err)
	}

	// A sink failure aborts the run.
	boom := fmt.Errorf("sink failed")
	if _, err := build().RunCheckpointed(checkpointEvery, func(sim.Tick, []byte) error { return boom }); err != boom {
		t.Fatalf("err = %v, want the sink's error", err)
	}
}
