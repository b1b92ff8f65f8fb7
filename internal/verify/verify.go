// Package verify implements the simulator's runtime invariant-verification
// subsystem: a config-gated set of always-on structural checks that turn
// silent correctness bugs — lost or duplicated flits, credit accounting
// drift, pooled-object aliasing, deadlocks — into immediate panics with
// component-level diagnostics.
//
// The subsystem is organized as one Verifier per Simulator plus lightweight
// per-link ledgers handed out to components at construction time:
//
//   - Flit conservation: every flit injected at a terminal must be retired
//     exactly once. The in-flight ledger (generation at injection plus an
//     in-flight mark) lives on each flit; injection, every channel
//     traversal, and ejection check against it, and core.Run reconciles the
//     injected/retired counts at drain. Keeping the ledger per-flit rather
//     than in a shared map is what makes the checks shard-safe under the
//     parallel engine: terminals write the marks, hops only read them, and
//     cross-shard flit hand-offs order the reads after the writes.
//   - Credit conservation: each upstream credit counter gets a CreditLedger
//     mirror. Every debit/credit reports the component's own counter value,
//     so any divergence (a flipped or skipped decrement) is caught at the
//     very next credit operation, with bounds checks against the downstream
//     buffer capacity. Downstream input buffers get a BufferLedger tracking
//     occupancy against capacity.
//   - Pool-aliasing sentinel: messages carry a generation stamp bumped on
//     every (re)initialization. The in-flight ledger records the generation
//     at injection; any later touch of the flit (channel hop, retirement)
//     with a different generation means the message was recycled while its
//     flits were still in the network. Pool release while flits are in
//     flight panics directly through the pool observer.
//   - Progress watchdog: a periodic self-scheduled check that panics when no
//     flit has moved for a full epoch while flits are buffered in the
//     network, dumping per-router VC occupancy — a deadlock/livelock
//     detector for event-driven models that keep scheduling without making
//     progress.
//
// Verification is attached per Simulator (verify.Attach) and discovered by
// components with verify.For, which returns nil when disabled. The hooks
// components call — FlitInjected, FlitTouched, FlitRetired, the ledger
// constructors and every ledger method — are no-ops on a nil receiver (a nil
// Verifier hands out nil ledgers), so components call them unguarded and the
// disabled hot path costs one predictable branch and zero allocations. Checks
// are observation-only: they never touch the PRNG or any component state, so
// enabling them cannot change simulation results.
package verify

import (
	"fmt"
	"strings"
	"sync/atomic"

	"supersim/internal/sim"
	"supersim/internal/types"
)

const evWatchdog = 0

// Options configures a Verifier.
type Options struct {
	// WatchdogEpoch is the progress watchdog period in ticks; if no flit
	// moves for a full epoch while flits are in flight, the watchdog panics
	// with an occupancy dump. Zero disables the watchdog.
	WatchdogEpoch sim.Tick
}

// Verifier is the per-simulation invariant checker. Create one with Attach
// before building components; components find it with For.
type Verifier struct {
	sim.ComponentBase
	opts Options

	// Flit conservation counters. The per-flit in-flight marks live on the
	// flits themselves (types.Flit.VerifyInFlight); injected and retired are
	// written only on the terminal (host) side, so they stay plain.
	injected uint64
	retired  uint64

	// activity counts flit movements (injections, hops, retirements); the
	// watchdog compares it across epochs. It is the one counter bumped from
	// every shard (channel hops, router-side credit/buffer ledgers), so it
	// is atomic; everything else the Verifier mutates is host-side only.
	activity     atomic.Uint64
	lastActivity uint64
	watchdogOn   bool

	credits []*CreditLedger
	buffers []*BufferLedger

	// diagnose, when set, renders a blocked-chain report appended to the
	// watchdog's occupancy dump (see internal/diagnose).
	diagnose func() string
}

// Attach creates a Verifier and registers it on the simulator so that
// components built afterwards discover it with For. Attaching twice panics.
func Attach(s *sim.Simulator, opts Options) *Verifier {
	if s.Verifier() != nil {
		panic("verify: simulator already has a verifier attached")
	}
	v := &Verifier{
		ComponentBase: sim.NewComponentBase(s, "verify"),
		opts:          opts,
	}
	s.SetVerifier(v)
	if opts.WatchdogEpoch > 0 {
		v.watchdogOn = true
		s.ScheduleDaemon(v, sim.Time{Tick: opts.WatchdogEpoch}, evWatchdog, nil)
	}
	return v
}

// For returns the simulator's attached Verifier, or nil when verification is
// disabled. Components call it once at construction and keep the pointer.
func For(s *sim.Simulator) *Verifier {
	if v, ok := s.Verifier().(*Verifier); ok {
		return v
	}
	return nil
}

// SetDiagnoser registers a report function the watchdog calls when it fires:
// its output is appended to the occupancy dump, turning "something is stuck"
// into "this chain of resources is stuck, held by these flits". core.Build
// wires the stall diagnostician here once the network exists.
func (v *Verifier) SetDiagnoser(fn func() string) { v.diagnose = fn }

// Injected returns the number of flits injected at terminals so far.
func (v *Verifier) Injected() uint64 { return v.injected }

// Retired returns the number of flits retired at terminals so far.
func (v *Verifier) Retired() uint64 { return v.retired }

// InFlight returns the number of flits currently in the network.
func (v *Verifier) InFlight() int { return int(v.injected - v.retired) }

// FlitInjected records a flit entering the network at a terminal. Injecting
// a flit that is already in flight panics (duplicate injection or aliasing).
func (v *Verifier) FlitInjected(f *types.Flit) {
	if v != nil {
		v.flitInjected(f)
	}
}

func (v *Verifier) flitInjected(f *types.Flit) {
	if gen, ok := f.VerifyInFlight(); ok {
		v.Panicf("%v injected while already in flight (generation %d, now %d) — duplicate injection or pool aliasing",
			f, gen, f.Pkt.Msg.Generation())
	}
	f.VerifyMarkInFlight(f.Pkt.Msg.Generation())
	v.injected++
	v.activity.Add(1)
}

// FlitTouched validates a flit at an intermediate touch point (every channel
// injection): it must carry the in-flight mark with an unchanged message
// generation. A generation mismatch means the owning message was recycled
// while this flit was still traversing the network.
func (v *Verifier) FlitTouched(f *types.Flit) {
	if v != nil {
		v.flitTouched(f)
	}
}

func (v *Verifier) flitTouched(f *types.Flit) {
	gen, ok := f.VerifyInFlight()
	if !ok {
		v.Panicf("%v touched but not in flight — flit forged, duplicated, or already retired", f)
	}
	if now := f.Pkt.Msg.Generation(); now != gen {
		v.Panicf("%v touched with stale generation: injected at %d, message now at %d — pooled message recycled while in network",
			f, gen, now)
	}
	v.activity.Add(1)
}

// FlitRetired records a flit leaving the network at its destination
// terminal. The flit must be in flight with an unchanged generation.
func (v *Verifier) FlitRetired(f *types.Flit) {
	if v != nil {
		v.flitRetired(f)
	}
}

func (v *Verifier) flitRetired(f *types.Flit) {
	gen, ok := f.VerifyInFlight()
	if !ok {
		v.Panicf("%v retired but not in flight — double retirement or lost injection record", f)
	}
	if now := f.Pkt.Msg.Generation(); now != gen {
		v.Panicf("%v retired with stale generation: injected at %d, message now at %d — pooled message recycled while in network",
			f, gen, now)
	}
	f.VerifyClearInFlight()
	v.retired++
	v.activity.Add(1)
}

// MessageObtained implements types.PoolObserver: a recycled message's flits
// must not still be in the network under their previous life.
func (v *Verifier) MessageObtained(m *types.Message) {
	v.checkNoFlitsInFlight(m, "obtained from pool")
}

// MessageReleased implements types.PoolObserver: releasing a message whose
// flits are still in flight would alias its blocks between two live
// messages.
func (v *Verifier) MessageReleased(m *types.Message) {
	v.checkNoFlitsInFlight(m, "released to pool")
}

func (v *Verifier) checkNoFlitsInFlight(m *types.Message, action string) {
	for i := 0; i < m.NumPackets(); i++ {
		p := m.Packet(i)
		for j := 0; j < p.Size(); j++ {
			f := p.Flit(j)
			if _, ok := f.VerifyInFlight(); ok {
				v.Panicf("message %d %s while %v is still in the network — pool aliasing",
					m.ID, action, f)
			}
		}
	}
}

// ProcessEvent runs the progress watchdog.
func (v *Verifier) ProcessEvent(ev *sim.Event) {
	if ev.Type != evWatchdog {
		v.Panicf("unknown event type %d", ev.Type)
	}
	activity := v.activity.Load()
	if activity == v.lastActivity && v.InFlight() > 0 {
		report := v.OccupancyDump()
		if v.diagnose != nil {
			report += "\n" + v.diagnose()
		}
		v.Panicf("no flit movement for %d ticks with %d flits in flight — deadlock or livelock\n%s",
			v.opts.WatchdogEpoch, v.InFlight(), report)
	}
	v.lastActivity = activity
	// Re-arm only while non-daemon events are pending: a queue holding only
	// daemon events (this watchdog, telemetry snapshots) means the simulation
	// is about to drain, and a perpetual watchdog would keep it alive forever
	// — or worse, two daemons counting each other would.
	if v.Sim().PendingNonDaemon() > 0 {
		v.Sim().ScheduleDaemon(v, v.Sim().Now().Plus(v.opts.WatchdogEpoch), evWatchdog, nil)
	}
}

// OccupancyDump renders every non-empty input buffer and every credit ledger
// with outstanding credits — the state a deadlock diagnosis starts from.
func (v *Verifier) OccupancyDump() string {
	var b strings.Builder
	b.WriteString("buffer occupancy:\n")
	for _, bl := range v.buffers {
		for vc, occ := range bl.occ {
			if occ > 0 {
				fmt.Fprintf(&b, "  %s vc %d: %d/%d flits\n", bl.name, vc, occ, bl.cap)
			}
		}
	}
	b.WriteString("outstanding credits:\n")
	for _, cl := range v.credits {
		for vc, c := range cl.mirror {
			if c != cl.cap {
				fmt.Fprintf(&b, "  %s vc %d: %d/%d credits held downstream\n", cl.name, vc, cl.cap-c, cl.cap)
			}
		}
	}
	return b.String()
}

// VerifyDrained reconciles the global ledgers after the network drains:
// every injected flit retired, nothing in flight, every credit returned and
// every tracked buffer empty. The framework calls it from core.Run after the
// per-component idle checks.
func (v *Verifier) VerifyDrained() {
	if v.injected != v.retired {
		v.Panicf("drain check: flit conservation violated: %d injected, %d retired (%d never retired)\n%s",
			v.injected, v.retired, v.InFlight(), v.OccupancyDump())
	}
	for _, cl := range v.credits {
		for vc, c := range cl.mirror {
			if c != cl.cap {
				v.Panicf("drain check: %s vc %d holds %d of %d credits", cl.name, vc, c, cl.cap)
			}
		}
	}
	for _, bl := range v.buffers {
		for vc, occ := range bl.occ {
			if occ != 0 {
				v.Panicf("drain check: %s vc %d still holds %d flits", bl.name, vc, occ)
			}
		}
	}
}
