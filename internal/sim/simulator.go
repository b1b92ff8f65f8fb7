package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
)

// maxEventFreeList caps the event free list. Recycled events beyond the cap
// are dropped for the GC to collect, so a burst peak (e.g. a transient pulse
// application) no longer pins its high-water mark of event memory for the
// rest of a long run. The cap comfortably exceeds the steady-state pending
// count of the paper-scale configurations, so the hot path still never
// allocates once warmed.
const maxEventFreeList = 4096

// Simulator is the global simulation object: it owns the event priority
// queue, the current time, and the simulation-wide pseudo random number
// generator. Each component links to the Simulator and pushes its new events
// into the queue; the executer sequentially pulls events and executes them
// until the queue runs empty.
//
// A Simulator is single-threaded and deterministic: the same configuration
// and seed always produce the same event order and the same results.
// Parallelism is across simulations, not within one: internal/taskrun and
// internal/sweep run many Simulators at once, as SuperSim's TaskRun does.
type Simulator struct {
	queue   eventQueue
	now     Time // restored by SetNow from the checkpoint tick
	running bool // true only inside Run; snapshots are taken quiesced
	stopped bool // sticky Stop latch; a stopped simulation is never snapshotted
	// executed and lastWork are this simulator's share of the run; the
	// container snapshots run-wide totals and restores them with SetProgress.
	executed uint64
	lastWork Time // time of the most recent non-daemon event executed
	seqGen   uint64
	orderGen uint32
	daemons  int      // queued events scheduled with ScheduleDaemon; InjectEvent recounts them
	free     []*Event // event recycling cache
	rng      *rand.Rand
	pcg      *rand.PCG // rng's source, retained so checkpoints can serialize it
	seed     uint64

	// derived records every DeriveRand stream in derivation order, so
	// checkpoints can serialize and restore the streams' PCG states. The
	// registry is a slice, not a map: derivation order is deterministic
	// (construction is config-driven and single-threaded), and slice
	// iteration keeps snapshot bytes deterministic too.
	derived []derivedStream

	// Monitor, if non-nil, is invoked every MonitorInterval executed
	// (non-daemon) events.
	Monitor         func(now Time, executed uint64)
	MonitorInterval uint64

	// MonitorFinish, if non-nil, is invoked once when Run returns (queue
	// drained or Stop called), so periodic reporters can flush their final
	// partial interval instead of losing it.
	MonitorFinish func(now Time, executed uint64)

	// verifier and telemetry are opaque attachment slots for the
	// invariant-verification subsystem (internal/verify) and the metrics and
	// span-recording subsystem (internal/telemetry). They live here so components
	// can discover the attachments through the simulator they are built
	// with; sim itself never inspects them, keeping this package
	// dependency-free.
	verifier  any
	telemetry any
}

// derivedStream is one DeriveRand stream: its name and the PCG source whose
// state evolves as the holder draws.
type derivedStream struct {
	name string
	pcg  *rand.PCG
}

// NewSimulator creates a simulator with the given PRNG seed.
func NewSimulator(seed uint64) *Simulator {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &Simulator{
		rng:  rand.New(pcg),
		pcg:  pcg,
		seed: seed,
	}
}

// Now returns the current simulation time. While an event executes, Now is
// that event's time.
func (s *Simulator) Now() Time { return s.now }

// Seed returns the PRNG seed the simulator was created with.
func (s *Simulator) Seed() uint64 { return s.seed }

// Rand returns the simulation-wide PRNG. Components must use this generator
// (or one derived from it) so simulations are reproducible. Components whose
// draws must also be independent of how other components interleave their
// draws — everything that draws during the run — should use DeriveRand
// instead.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// DeriveRand returns a fresh PRNG stream deterministically derived from the
// simulator's seed and the given name. Two simulators with the same seed
// derive identical streams for identical names, regardless of what other
// components exist or when they draw — this is what makes per-component
// randomness independent of event interleaving and of which other
// components a configuration builds. Names must be unique per logical stream
// (include an instance index when several components share a type name).
func (s *Simulator) DeriveRand(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	sub := h.Sum64()
	pcg := rand.NewPCG(s.seed^sub, (s.seed+0x9e3779b97f4a7c15)^(sub*0xff51afd7ed558ccd|1))
	s.derived = append(s.derived, derivedStream{name: name, pcg: pcg})
	return rand.New(pcg)
}

// nextOrderKey hands out construction-order keys for component event
// ordering; see eventOrder in component.go. Key 0 is reserved for "not yet
// assigned".
func (s *Simulator) nextOrderKey() uint32 {
	s.orderGen++
	if s.orderGen == 0 {
		panic("sim: component construction-order key space exhausted")
	}
	return s.orderGen
}

// SetVerifier attaches an opaque verification object to the simulator. It is
// set once, before components are built (see internal/verify.Attach).
func (s *Simulator) SetVerifier(v any) { s.verifier = v }

// Verifier returns the attached verification object, or nil.
func (s *Simulator) Verifier() any { return s.verifier }

// SetTelemetry attaches an opaque telemetry object to the simulator. It is
// set once, before components are built (see internal/telemetry.Attach).
func (s *Simulator) SetTelemetry(t any) { s.telemetry = t }

// Telemetry returns the attached telemetry object, or nil.
func (s *Simulator) Telemetry() any { return s.telemetry }

// Executed returns the number of non-daemon events executed so far. Daemon
// events (ScheduleDaemon) are pure observers; excluding them keeps the count
// independent of which observers are attached.
func (s *Simulator) Executed() uint64 { return s.executed }

// LastWork returns the time of the most recent non-daemon event executed —
// the simulation's logical end time once the queue has drained, independent
// of any trailing daemon wake-ups.
func (s *Simulator) LastWork() Time { return s.lastWork }

// Pending returns the number of events currently queued.
func (s *Simulator) Pending() int { return s.queue.len() }

// PendingFor returns the number of queued events of type typ addressed to
// handler h. It walks the whole queue: it is for tests and diagnostics, not
// for model code.
func (s *Simulator) PendingFor(h Handler, typ int) int {
	n := 0
	s.queue.each(func(e *Event) bool {
		if e.Handler == h && e.Type == typ {
			n++
		}
		return true
	})
	return n
}

// PendingNonDaemon returns the number of queued events that were not
// scheduled with ScheduleDaemon — the events that represent real simulation
// work. Periodic observers (watchdogs, telemetry snapshots) use it to decide
// whether to re-arm: re-arming while only daemon events remain would keep
// the simulation alive forever, and two daemons checking Pending would keep
// each other alive.
func (s *Simulator) PendingNonDaemon() int { return s.queue.len() - s.daemons }

// Schedule enqueues an event for the handler at the given time with a type
// tag and context pointer. The time must not be in the past; scheduling at
// the current (tick, epsilon) is also rejected because execution order would
// be ambiguous with respect to the running event.
func (s *Simulator) Schedule(h Handler, t Time, typ int, ctx any) {
	s.schedule(h, t, typ, ctx, false)
}

// ScheduleDaemon enqueues an event that does not count as simulation work:
// it is excluded from PendingNonDaemon and from the Executed count.
// Observation-only periodic components (the verify watchdog, telemetry
// snapshots) schedule with this so their self-re-arming never extends the
// life of a drained simulation.
func (s *Simulator) ScheduleDaemon(h Handler, t Time, typ int, ctx any) {
	s.schedule(h, t, typ, ctx, true)
}

func (s *Simulator) schedule(h Handler, t Time, typ int, ctx any, daemon bool) {
	if h == nil {
		panic("sim: Schedule with nil handler")
	}
	if s.running && !s.now.Before(t) {
		panic(fmt.Sprintf("sim: event scheduled at %v not after now %v", t, s.now))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	e.Time = t
	e.Handler = h
	e.Type = typ
	e.Context = ctx
	e.daemon = daemon
	if daemon {
		s.daemons++
	}
	if oh, ok := h.(ordered); ok {
		o := oh.order()
		if o.key == 0 {
			// Lazy key for handlers built outside a component (HandlerFunc):
			// assigned on first schedule, which is deterministic in a
			// single-threaded build/run.
			o.key = s.nextOrderKey()
		}
		o.seq++
		e.owner, e.oseq = o.key, o.seq
	} else {
		// Foreign Handler implementation: fall back to global schedule order,
		// sorted after all keyed components at the same time.
		s.seqGen++
		e.owner, e.oseq = ^uint32(0), s.seqGen
	}
	s.queue.push(e)
}

// Stop ends the simulation: Run or RunUntil returns after the currently
// executing event completes, even if events remain queued, and every later
// Run or RunUntil call returns at once having executed nothing. The latch is
// sticky on purpose: drivers that step a simulation (RunCheckpointed's RunUntil
// loop) finish with one more Run for trailing daemons, and that call must not
// resume a simulation an error path or a workload controller declared
// complete. Events left in the queue, including the rest of the timestamp
// that was executing, stay pending and exportable.
func (s *Simulator) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Simulator) Stopped() bool { return s.stopped }

// Run executes events in time order until the queue runs empty or Stop is
// called. It returns the number of non-daemon events executed by this call.
func (s *Simulator) Run() uint64 {
	n := s.runUntil(^Tick(0), true)
	s.FinishMonitor()
	return n
}

// RunUntil executes events whose time is strictly before the given tick, then
// returns. The simulation can be resumed with further Run/RunUntil calls.
// Each event goes through exactly the same execution path as Run: the
// time-went-backwards check and the Monitor callback both apply, so a
// simulation stepped with RunUntil behaves identically to one driven by Run.
//
// Unlike Run, RunUntil does NOT invoke MonitorFinish: reaching the horizon
// tick is a pause, not the end of the simulation, and a stepped run would
// otherwise flush its "final" interval once per step. Callers that finish a
// simulation via RunUntil must call FinishMonitor once when the whole run is
// over. This asymmetry is pinned by TestRunUntilDoesNotMonitorFinish.
func (s *Simulator) RunUntil(tick Tick) uint64 {
	return s.runUntil(tick, false)
}

// FinishMonitor invokes MonitorFinish, if set. Run calls it automatically;
// drivers that end a simulation through RunUntil call it exactly once at the
// true end of the run.
func (s *Simulator) FinishMonitor() {
	if s.MonitorFinish != nil {
		s.MonitorFinish(s.now, s.executed)
	}
}

func (s *Simulator) runUntil(tick Tick, all bool) uint64 {
	start := s.executed
	s.running = true
	for s.queue.len() > 0 && !s.stopped {
		if !all && s.queue.nextTick() >= tick {
			break
		}
		e := s.queue.pop()
		if e.Time.Before(s.now) {
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", s.now, e.Time))
		}
		daemon := e.daemon
		if daemon {
			s.daemons--
			e.daemon = false
		}
		s.now = e.Time
		h := e.Handler
		if !daemon {
			s.executed++
			s.lastWork = e.Time
		}
		h.ProcessEvent(e)
		e.Handler = nil
		e.Context = nil
		if len(s.free) < maxEventFreeList {
			s.free = append(s.free, e)
		}
		if !daemon && s.Monitor != nil && s.MonitorInterval > 0 && s.executed%s.MonitorInterval == 0 {
			s.Monitor(s.now, s.executed)
		}
	}
	s.running = false
	return s.executed - start
}
