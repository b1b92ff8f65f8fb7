package core

import (
	"fmt"
	"strings"
	"testing"

	"supersim/internal/sim"
)

// mustPanic runs fn and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
			t.Fatalf("panic %q, want one containing %q", got, want)
		}
	}()
	fn()
}

// busy keeps the event queue holding real work, one event every 1000 ticks
// until tick until, without moving any flit: to the watchdog a network whose
// flits are all stuck.
type busy struct {
	sim.ComponentBase
	until sim.Tick
	tick  func()
}

func (b *busy) ProcessEvent(*sim.Event) {
	if b.tick != nil {
		b.tick()
	}
	if now := b.Sim().Now(); now.Tick < b.until {
		b.Sim().Schedule(b, now.Plus(1000), 0, nil)
	}
}

// busySim returns a simulator whose queue holds work until tick until.
func busySim(until sim.Tick, tick func()) *sim.Simulator {
	s := sim.NewSimulator(1)
	b := &busy{ComponentBase: sim.NewComponentBase(s, "busy"), until: until, tick: tick}
	s.Schedule(b, sim.Time{Tick: 1}, 0, nil)
	return s
}

// stuck counts one flit in the network that never moves.
func stuck() flitCounts { return flitCounts{sent: 1} }

func noReport() string { return "" }

func TestWatchdogFiresOnStall(t *testing.T) {
	s := busySim(3*watchdogEpoch, nil)
	mustPanic(t, "core @100000: no flit movement for 100000 ticks with 1 flits in flight — deadlock or livelock", func() {
		drive(s, stuck, noReport, 0, nil)
	})
}

func TestWatchdogAppendsDiagnoserReport(t *testing.T) {
	s := busySim(3*watchdogEpoch, nil)
	report := func() string { return "chain: terminal 3 -> router 1 (deadlock)" }
	mustPanic(t, "deadlock or livelock\nchain: terminal 3 -> router 1 (deadlock)", func() {
		drive(s, stuck, report, 0, nil)
	})
}

// TestWatchdogQuietWhenNothingInFlight: a queue busy with work that moves no
// flit is no stall while the network is empty, and the run drains.
func TestWatchdogQuietWhenNothingInFlight(t *testing.T) {
	s := busySim(3*watchdogEpoch, nil)
	if err := drive(s, func() flitCounts { return flitCounts{sent: 4, received: 4} }, noReport, 0, nil); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 || s.Executed() != 301 {
		t.Fatalf("run stopped at %v after %d events, %d pending; want 301 and none", s.Now(), s.Executed(), s.Pending())
	}
}

// TestWatchdogToleratesProgress: a flit in flight the whole time is no stall
// while flits keep moving.
func TestWatchdogToleratesProgress(t *testing.T) {
	var moved uint64
	s := busySim(3*watchdogEpoch, func() { moved++ })
	if err := drive(s, func() flitCounts { return flitCounts{sent: 1, moved: moved} }, noReport, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogBaselinesMidEpochStart: a run that starts between two epoch
// boundaries, as a restored one does, checks no partial window: its first
// check covers the whole epoch after the first boundary, as in the
// uninterrupted run.
func TestWatchdogBaselinesMidEpochStart(t *testing.T) {
	s := busySim(4*watchdogEpoch, nil)
	s.RunUntil(watchdogEpoch / 2)
	mustPanic(t, "core @200000: no flit movement", func() {
		drive(s, stuck, noReport, 0, nil)
	})
}

// TestWatchdogPausesBesideCheckpoints: the watchdog's pauses and the
// checkpoints' interleave, and each checkpoint tick is handed over once.
func TestWatchdogPausesBesideCheckpoints(t *testing.T) {
	var moved uint64
	s := busySim(2*watchdogEpoch, func() { moved++ })
	var got []sim.Tick
	err := drive(s, func() flitCounts { return flitCounts{sent: 1, moved: moved} }, noReport, 60000,
		func(at sim.Tick) error {
			got = append(got, at)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[60000 120000 180000]" {
		t.Fatalf("checkpoints at %v, want [60000 120000 180000]", got)
	}
}

func TestVerifyDrainedCatchesLeaks(t *testing.T) {
	mustPanic(t, "flit conservation violated: 5 injected, 4 retired (1 never retired)", func() {
		checkConservation(flitCounts{sent: 5, received: 4}, noReport)
	})
	checkConservation(flitCounts{sent: 5, received: 5, moved: 20}, noReport)
}

func TestVerifyDrainedPrintsDiagnoserReport(t *testing.T) {
	report := func() string { return "router 1 in(port 0, vc 1): occ 1" }
	mustPanic(t, "router 1 in(port 0, vc 1): occ 1", func() {
		checkConservation(flitCounts{sent: 1}, report)
	})
}
