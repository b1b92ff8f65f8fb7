package verify

import (
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/types"
)

func newVerifier(t *testing.T, opts Options) (*sim.Simulator, *Verifier) {
	t.Helper()
	s := sim.NewSimulator(1)
	return s, Attach(s, opts)
}

// mustPanic runs fn and requires a panic whose message contains substr.
func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok {
			msg = "" // panics from Panicf are strings; anything else fails the contains check
			if err, isErr := r.(error); isErr {
				msg = err.Error()
			}
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	fn()
}

func msg(id uint64) *types.Message {
	return types.NewMessage(id, 0, 0, 1, 4, 2)
}

func TestAttachTwicePanics(t *testing.T) {
	s, _ := newVerifier(t, Options{})
	mustPanic(t, "already has a verifier", func() { Attach(s, Options{}) })
}

func TestForReturnsNilWhenDisabled(t *testing.T) {
	if v := For(sim.NewSimulator(1)); v != nil {
		t.Fatalf("For on bare simulator = %v, want nil", v)
	}
}

func TestForFindsAttachedVerifier(t *testing.T) {
	s, v := newVerifier(t, Options{})
	if For(s) != v {
		t.Fatal("For did not return the attached verifier")
	}
}

func TestFlitLifecycleHappyPath(t *testing.T) {
	_, v := newVerifier(t, Options{})
	m := msg(1)
	for pi := 0; pi < m.NumPackets(); pi++ {
		p := m.Packet(pi)
		for fi := 0; fi < p.Size(); fi++ {
			f := p.Flit(fi)
			v.FlitInjected(f)
			v.FlitTouched(f)
			v.FlitTouched(f)
			v.FlitRetired(f)
		}
	}
	if v.Injected() != 4 || v.Retired() != 4 || v.InFlight() != 0 {
		t.Fatalf("injected=%d retired=%d inflight=%d", v.Injected(), v.Retired(), v.InFlight())
	}
	v.VerifyDrained()
}

func TestDuplicateInjectionPanics(t *testing.T) {
	_, v := newVerifier(t, Options{})
	f := msg(1).Packet(0).Flit(0)
	v.FlitInjected(f)
	mustPanic(t, "already in flight", func() { v.FlitInjected(f) })
}

func TestTouchWithoutInjectionPanics(t *testing.T) {
	_, v := newVerifier(t, Options{})
	f := msg(1).Packet(0).Flit(0)
	mustPanic(t, "not in flight", func() { v.FlitTouched(f) })
}

func TestDoubleRetirementPanics(t *testing.T) {
	_, v := newVerifier(t, Options{})
	f := msg(1).Packet(0).Flit(0)
	v.FlitInjected(f)
	v.FlitRetired(f)
	mustPanic(t, "not in flight", func() { v.FlitRetired(f) })
}

func TestStaleGenerationTouchPanics(t *testing.T) {
	// Recycle the message through a pool while a flit is in flight but skip
	// the observer (simulating a pool whose bookkeeping was bypassed): the
	// generation stamp alone must catch the aliased touch.
	_, v := newVerifier(t, Options{})
	pool := types.NewPool()
	m := pool.NewMessage(1, 0, 0, 1, 4, 2)
	f := m.Packet(0).Flit(0)
	v.FlitInjected(f)
	pool.Release(m)
	m2 := pool.NewMessage(2, 0, 2, 3, 4, 2) // recycles m's blocks, bumps gen
	if m2 != m {
		t.Skip("pool did not recycle the message; aliasing cannot occur")
	}
	mustPanic(t, "stale generation", func() { v.FlitTouched(f) })
}

func TestStaleGenerationRetirePanics(t *testing.T) {
	_, v := newVerifier(t, Options{})
	pool := types.NewPool()
	m := pool.NewMessage(1, 0, 0, 1, 4, 2)
	f := m.Packet(0).Flit(0)
	v.FlitInjected(f)
	pool.Release(m)
	m2 := pool.NewMessage(2, 0, 2, 3, 4, 2)
	if m2 != m {
		t.Skip("pool did not recycle the message; aliasing cannot occur")
	}
	mustPanic(t, "stale generation", func() { v.FlitRetired(f) })
}

func TestPoolReleaseWhileInFlightPanics(t *testing.T) {
	_, v := newVerifier(t, Options{})
	pool := types.NewPool()
	pool.SetObserver(v)
	m := pool.NewMessage(1, 0, 0, 1, 4, 2)
	v.FlitInjected(m.Packet(0).Flit(0))
	mustPanic(t, "pool aliasing", func() { pool.Release(m) })
}

func TestPoolObtainWithFlitsInFlightPanics(t *testing.T) {
	// Release without the observer attached, then re-obtain with it: the
	// obtained message's blocks still hold an in-flight flit.
	_, v := newVerifier(t, Options{})
	pool := types.NewPool()
	m := pool.NewMessage(1, 0, 0, 1, 4, 2)
	v.FlitInjected(m.Packet(0).Flit(0))
	pool.Release(m)
	pool.SetObserver(v)
	mustPanic(t, "pool aliasing", func() { pool.NewMessage(2, 0, 2, 3, 4, 2) })
}

func TestCreditLedgerDivergenceOnDebit(t *testing.T) {
	// A component whose decrement was skipped or flipped reports a counter
	// value that disagrees with the mirror — caught on the very next debit.
	_, v := newVerifier(t, Options{})
	cl := v.NewCreditLedger("r", ".out0", 1, 4)
	mustPanic(t, "diverged on debit", func() { cl.Debit(0, 4) }) // should be 3
}

func TestCreditLedgerDivergenceOnCredit(t *testing.T) {
	_, v := newVerifier(t, Options{})
	cl := v.NewCreditLedger("r", ".out0", 1, 4)
	cl.Debit(0, 3)
	mustPanic(t, "diverged on credit", func() { cl.Credit(0, 5) }) // should be 4
}

func TestCreditDebitBelowZeroPanics(t *testing.T) {
	_, v := newVerifier(t, Options{})
	cl := v.NewCreditLedger("r", ".out0", 1, 1)
	cl.Debit(0, 0)
	mustPanic(t, "below zero", func() { cl.Debit(0, -1) })
}

func TestCreditAboveCapacityPanics(t *testing.T) {
	_, v := newVerifier(t, Options{})
	cl := v.NewCreditLedger("r", ".out0", 1, 1)
	mustPanic(t, "exceed capacity", func() { cl.Credit(0, 2) })
}

func TestBufferOverrunPanics(t *testing.T) {
	_, v := newVerifier(t, Options{})
	bl := v.NewBufferLedger("r", ".in0", 1, 2)
	bl.Arrive(0)
	bl.Arrive(0)
	mustPanic(t, "buffer overrun", func() { bl.Arrive(0) })
}

func TestBufferFreeBelowZeroPanics(t *testing.T) {
	_, v := newVerifier(t, Options{})
	bl := v.NewBufferLedger("r", ".in0", 1, 2)
	mustPanic(t, "freed below zero", func() { bl.Free(0) })
}

func TestVerifyDrainedCatchesLeaks(t *testing.T) {
	_, v := newVerifier(t, Options{})
	f := msg(1).Packet(0).Flit(0)
	v.FlitInjected(f)
	mustPanic(t, "never retired", func() { v.VerifyDrained() })
}

func TestVerifyDrainedCatchesHeldCredits(t *testing.T) {
	_, v := newVerifier(t, Options{})
	cl := v.NewCreditLedger("r", ".out0", 1, 2)
	cl.Debit(0, 1)
	mustPanic(t, "holds 1 of 2 credits", func() { v.VerifyDrained() })
}

func TestVerifyDrainedCatchesOccupiedBuffers(t *testing.T) {
	_, v := newVerifier(t, Options{})
	bl := v.NewBufferLedger("r", ".in0", 1, 2)
	bl.Arrive(0)
	mustPanic(t, "still holds 1 flits", func() { v.VerifyDrained() })
}

// watchdogHarness is a component that keeps the event queue busy without
// generating any flit activity, so the watchdog sees a stalled network.
type watchdogHarness struct {
	sim.ComponentBase
	until sim.Tick
}

func (h *watchdogHarness) ProcessEvent(ev *sim.Event) {
	if now := h.Sim().Now(); now.Tick < h.until {
		h.Sim().Schedule(h, now.Plus(1), 0, nil)
	}
}

func TestWatchdogFiresOnStall(t *testing.T) {
	s, v := newVerifier(t, Options{WatchdogEpoch: 10})
	v.FlitInjected(msg(1).Packet(0).Flit(0)) // a flit is stuck in flight
	h := &watchdogHarness{ComponentBase: sim.NewComponentBase(s, "busy"), until: 100}
	s.Schedule(h, sim.Time{Tick: 1}, 0, nil)
	mustPanic(t, "deadlock or livelock", func() { s.Run() })
}

func TestWatchdogAppendsDiagnoserReport(t *testing.T) {
	s, v := newVerifier(t, Options{WatchdogEpoch: 10})
	v.SetDiagnoser(func() string { return "chain: terminal 3 -> router 1 (deadlock)" })
	v.FlitInjected(msg(1).Packet(0).Flit(0))
	h := &watchdogHarness{ComponentBase: sim.NewComponentBase(s, "busy"), until: 100}
	s.Schedule(h, sim.Time{Tick: 1}, 0, nil)
	mustPanic(t, "chain: terminal 3 -> router 1 (deadlock)", func() { s.Run() })
}

func TestWatchdogQuietWhenNothingInFlight(t *testing.T) {
	s, _ := newVerifier(t, Options{WatchdogEpoch: 10})
	h := &watchdogHarness{ComponentBase: sim.NewComponentBase(s, "busy"), until: 100}
	s.Schedule(h, sim.Time{Tick: 1}, 0, nil)
	s.Run() // idle network: the watchdog must not fire and must let the queue drain
}

func TestWatchdogToleratesProgress(t *testing.T) {
	// Continuous flit activity across epochs: no panic even with a flit in
	// flight the whole time.
	s, v := newVerifier(t, Options{WatchdogEpoch: 10})
	f := msg(1).Packet(0).Flit(0)
	v.FlitInjected(f)
	h := &watchdogHarness{ComponentBase: sim.NewComponentBase(s, "busy"), until: 50}
	toucher := &flitToucher{ComponentBase: sim.NewComponentBase(s, "toucher"), v: v, f: f, until: 50}
	s.Schedule(h, sim.Time{Tick: 1}, 0, nil)
	s.Schedule(toucher, sim.Time{Tick: 1}, 0, nil)
	s.Run()
	v.FlitRetired(f)
	v.VerifyDrained()
}

type flitToucher struct {
	sim.ComponentBase
	v     *Verifier
	f     *types.Flit
	until sim.Tick
}

func (c *flitToucher) ProcessEvent(ev *sim.Event) {
	c.v.FlitTouched(c.f)
	if now := c.Sim().Now(); now.Tick < c.until {
		c.Sim().Schedule(c, now.Plus(1), 0, nil)
	}
}

func TestOccupancyDumpListsState(t *testing.T) {
	_, v := newVerifier(t, Options{})
	cl := v.NewCreditLedger("r", ".out7", 2, 4)
	bl := v.NewBufferLedger("r", ".in3", 2, 4)
	cl.Debit(1, 3)
	bl.Arrive(0)
	dump := v.OccupancyDump()
	if !strings.Contains(dump, "r.in3 vc 0: 1/4 flits") {
		t.Errorf("dump missing buffer line:\n%s", dump)
	}
	if !strings.Contains(dump, "r.out7 vc 1: 1/4 credits held") {
		t.Errorf("dump missing credit line:\n%s", dump)
	}
}
