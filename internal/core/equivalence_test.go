package core

import (
	"bytes"
	"fmt"
	"testing"

	"supersim/internal/config"
	"supersim/internal/sim"
)

// The equivalence matrix measures the two promises the simulator makes
// about a run, over every model a configuration can select. Each
// configuration first runs to completion with a checkpoint every
// checkpointEvery ticks: the reference. Then:
//
//   - repeat: a second run writes byte-identical checkpoints, so a run is a
//     pure function of its settings document;
//   - restore: a run restored from the reference's middle checkpoint writes
//     the same state at every later checkpoint and ends with the same
//     Result, so restored = uninterrupted.
//
// A failure names the mode, the first divergent checkpoint and the section
// and byte offset where it diverges.

// eqBlast is a blast application that finishes: 500 ticks of warm-up, a
// 2,000-tick sampling window, then the drain.
const eqBlast = `{"type": "blast", "injection_rate": 0.2, "message_size": 4,
  "max_packet_size": 2, "warmup_duration": 500, "sample_duration": 2000,
  "traffic": {"type": "uniform_random"}}`

// eqCases is the matrix's configuration set: modelCases, the golden cases,
// and the golden cases again with every probe on.
func eqCases(t *testing.T) []allocCase {
	cases := modelCases(eqBlast)
	for _, gc := range goldenCases() {
		cases = append(cases, allocCase{name: "golden_" + gc.name, cfg: config.MustParse(gc.doc)})
	}
	for _, gc := range goldenCases() {
		cfg := config.MustParse(gc.doc)
		if err := cfg.ApplyOverrides(probesOn); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, allocCase{name: "golden_" + gc.name + "/telemetry", cfg: cfg})
	}
	return cases
}

// eqRun is one checkpointed run: its checkpoints and its outcome.
type eqRun struct {
	snaps []snap
	res   Result
}

// checkpointed runs sm to completion under RunCheckpointed.
func checkpointed(t *testing.T, sm *Simulation) eqRun {
	t.Helper()
	var r eqRun
	res, err := sm.RunCheckpointed(checkpointEvery, func(tick sim.Tick, data []byte) error {
		r.snaps = append(r.snaps, snap{tick, data})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r.res = res
	return r
}

// compareRuns checks got, a run whose first checkpoint comes after tick from,
// against the reference's checkpoints after from, byte for byte; then the
// Results.
func compareRuns(t *testing.T, mode string, ref, got eqRun, from sim.Tick) {
	t.Helper()
	want := ref.snaps
	for len(want) > 0 && want[0].tick <= from {
		want = want[1:]
	}
	if len(got.snaps) != len(want) {
		t.Errorf("%s: %d checkpoints, reference %d after tick %d", mode, len(got.snaps), len(want), from)
		return
	}
	for i, s := range got.snaps {
		a, b := want[i].data, s.data
		if s.tick != want[i].tick {
			t.Errorf("%s: checkpoint %d at tick %d, reference at %d", mode, i, s.tick, want[i].tick)
			return
		}
		if off := firstDiff(a, b); off >= 0 {
			t.Errorf("%s: first divergent checkpoint at tick %d: %s (%d bytes, reference %d)",
				mode, s.tick, sectionOf(a, off), len(b), len(a))
			return
		}
	}
	if got.res != ref.res {
		t.Errorf("%s: result %+v, reference %+v", mode, got.res, ref.res)
	}
}

// firstDiff returns the first offset at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// sectionOf names the section of a snapshot that holds byte off. Section markers are found by
// searching for each tag in stream order; a tag's bytes occurring by chance
// inside an earlier section would misplace the boundary, which is acceptable
// for a diagnostic.
func sectionOf(data []byte, off int) string {
	name, start, pos := "header", 0, 0
	for _, tag := range []string{secConfig, secTime, secSim, secWorkload, secNetwork, secTelemetry, secEvents} {
		i := bytes.Index(data[pos:], append([]byte{byte(len(tag))}, tag...))
		if i < 0 {
			continue
		}
		if pos+i > off {
			break
		}
		name, start, pos = tag, pos+i, pos+i+1+len(tag)
	}
	return fmt.Sprintf("section %s, byte %d (%d into the section)", name, off, off-start)
}

// TestEquivalenceMatrix runs the matrix described at the top of this file.
func TestEquivalenceMatrix(t *testing.T) {
	for _, c := range eqCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ref := checkpointed(t, Build(c.cfg))
			if len(ref.snaps) < 3 {
				t.Fatalf("%d checkpoints: the run is too short to restore mid-flight", len(ref.snaps))
			}
			compareRuns(t, "repeat", ref, checkpointed(t, Build(c.cfg)), 0)
			mid := len(ref.snaps) / 2
			sm, tick, err := Restore(ref.snaps[mid].data, 0)
			if err != nil {
				t.Fatalf("restore at tick %d: %v", ref.snaps[mid].tick, err)
			}
			compareRuns(t, "restore", ref, checkpointed(t, sm), tick)
		})
	}
}
