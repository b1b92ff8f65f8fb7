package core

import (
	"bytes"
	"reflect"
	"testing"

	"supersim/internal/config"
	"supersim/internal/sim"
)

// The checkpoint equivalence harness proves the snapshot format complete: a
// run paused for snapshots is identical to an uninterrupted one, and a run
// killed at a checkpoint and restored from the snapshot finishes with the
// committed golden fingerprint.
// Anything the serializer misses (a queue, a counter, a PRNG stream, an
// in-flight flit) perturbs the continuation and shows up as a fingerprint
// diff against the golden.

// checkpointEvery is the snapshot interval for the golden runs. The goldens
// end around tick ~2000, so this yields checkpoints at 500/1000/1500/2000 —
// warmup, the sampling window, and the drain tail all get one.
const checkpointEvery = 500

type snap struct {
	tick sim.Tick
	data []byte
}

// runCheckpointed executes one golden case with a snapshot at every interval
// boundary and returns the run's fingerprint plus the captured snapshots.
func runCheckpointed(t *testing.T, gc goldenCase) (fingerprint, []snap) {
	t.Helper()
	sm := Build(config.MustParse(gc.doc))
	var snaps []snap
	res, err := sm.RunCheckpointed(checkpointEvery, func(tick sim.Tick, data []byte) error {
		snaps = append(snaps, snap{tick, append([]byte(nil), data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return goldenFingerprint(t, gc, sm, res), snaps
}

// resumeFingerprint restores a snapshot, runs the continuation to
// completion, and fingerprints it.
func resumeFingerprint(t *testing.T, gc goldenCase, data []byte) fingerprint {
	t.Helper()
	sm, tick, err := Restore(data, 0)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if tick == 0 {
		t.Fatal("restore reported checkpoint tick 0")
	}
	res, err := sm.Run()
	if err != nil {
		t.Fatalf("restored continuation: %v", err)
	}
	return goldenFingerprint(t, gc, sm, res)
}

// TestCheckpointedRunMatchesGolden proves checkpoint boundaries are invisible:
// a run paused for a snapshot every 500 ticks produces the committed golden
// fingerprint.
func TestCheckpointedRunMatchesGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			got, snaps := runCheckpointed(t, gc)
			if len(snaps) < 2 {
				t.Fatalf("expected at least 2 checkpoints, got %d", len(snaps))
			}
			if want := loadGolden(t, gc); !reflect.DeepEqual(got, want) {
				t.Fatalf("checkpointed run diverged from golden:\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestSimulationAfterImport is the import/export oracle: for every golden
// topology, a run checkpointed mid-flight and restored from that snapshot
// must finish byte-identical — same event count, end tick, conservation
// ledger totals, and latency histogram — to the uninterrupted run.
func TestSimulationAfterImport(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			_, snaps := runCheckpointed(t, gc)
			if len(snaps) == 0 {
				t.Fatal("no checkpoints captured")
			}
			// The middle snapshot: traffic in full flight, flits occupying
			// every layer the serializer has to capture.
			mid := snaps[len(snaps)/2]
			got := resumeFingerprint(t, gc, mid.data)
			if want := loadGolden(t, gc); !reflect.DeepEqual(got, want) {
				t.Fatalf("continuation restored at tick %d diverged from golden:\ngot:  %+v\nwant: %+v",
					mid.tick, got, want)
			}
		})
	}
}

// TestRestoredRunCheckpointsOnlyAhead resumes a checkpointed run: the
// continuation must checkpoint only the boundaries after its restore tick,
// not re-write (over the file it was restored from, under an earlier label)
// the ones the original run already passed.
func TestRestoredRunCheckpointsOnlyAhead(t *testing.T) {
	gc := goldenCases()[0]
	_, snaps := runCheckpointed(t, gc)
	var at1500 []byte
	for _, s := range snaps {
		if s.tick == 1500 {
			at1500 = s.data
		}
	}
	if at1500 == nil {
		t.Fatal("no checkpoint at tick 1500")
	}
	sm, _, err := Restore(at1500, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ticks []sim.Tick
	if _, err := sm.RunCheckpointed(checkpointEvery, func(tick sim.Tick, _ []byte) error {
		ticks = append(ticks, tick)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []sim.Tick{2000}; !reflect.DeepEqual(ticks, want) {
		t.Errorf("restored run checkpointed at %v, want %v", ticks, want)
	}
}

// TestSnapshotRoundTrip is the exact export/import identity: restoring a
// snapshot and immediately re-snapshotting at the same tick reproduces the
// original byte-for-byte. Any state the decoder drops, defaults, or reorders
// breaks this before it could show up as a behavioral diff. The w2 case runs
// a config that still carries the removed simulation.workers key, which must
// round-trip as exactly as one without it.
func TestSnapshotRoundTrip(t *testing.T) {
	gc := goldenCases()[0]
	for _, c := range []struct {
		name      string
		overrides []string
	}{{"w1", nil}, {"w2", []string{"simulation.workers=uint=2"}}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.MustParse(gc.doc)
			if err := cfg.ApplyOverrides(c.overrides); err != nil {
				t.Fatal(err)
			}
			var snaps []snap
			if _, err := Build(cfg).RunCheckpointed(checkpointEvery, func(tick sim.Tick, data []byte) error {
				snaps = append(snaps, snap{tick, append([]byte(nil), data...)})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(snaps) == 0 {
				t.Fatal("no checkpoints captured")
			}
			for _, s := range snaps {
				sm, tick, err := Restore(s.data, 0)
				if err != nil {
					t.Fatalf("restore at tick %d: %v", s.tick, err)
				}
				if tick != s.tick {
					t.Fatalf("restore reported tick %d, snapshot taken at %d", tick, s.tick)
				}
				again, err := sm.Snapshot(tick)
				if err != nil {
					t.Fatalf("re-snapshot at tick %d: %v", tick, err)
				}
				if !bytes.Equal(again, s.data) {
					t.Fatalf("round-trip at tick %d not byte-identical: %d bytes re-encoded vs %d original",
						tick, len(again), len(s.data))
				}
			}
		})
	}
}

// FuzzRestore feeds arbitrary bytes to Restore: corrupted, truncated, or
// version-skewed snapshots must produce an error, never a panic. The seed
// corpus is a real snapshot from the smallest golden topology plus its
// truncations and a bare magic header.
func FuzzRestore(f *testing.F) {
	gc := goldenCases()[4] // parking_lot: smallest network, smallest snapshot
	sm := Build(config.MustParse(gc.doc))
	var seed []byte
	if _, err := sm.RunCheckpointed(checkpointEvery, func(tick sim.Tick, data []byte) error {
		if seed == nil {
			seed = append([]byte(nil), data...)
		}
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	if seed == nil {
		f.Fatal("no snapshot captured for the fuzz corpus")
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:16])
	f.Add([]byte("SSIMSNAP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sm, _, err := Restore(data, 0)
		if err == nil && sm == nil {
			t.Fatal("Restore returned nil simulation with nil error")
		}
	})
}
