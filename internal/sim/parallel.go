// Conservative parallel discrete-event engine.
//
// An Engine coordinates several Simulators ("shards"), each single-threaded,
// executing one partition of the component graph. Shards interact only
// through channels with latency >= 1; that latency is the lookahead of
// classic conservative PDES (Chandy-Misra-Bryant): a shard may safely execute
// every event strictly before
//
//	horizon = min over incoming cross-shard links (src.commit + link latency)
//
// because any future cross-shard arrival from src carries a timestamp of at
// least src's committed time plus the link latency. Cross-shard sends are
// timestamped posts into the destination shard's inbox; each worker loop is
//
//  1. read upstream commits and compute the horizon,
//  2. drain the inbox,
//  3. execute local events with time < horizon,
//  4. publish the new commit and wake dependent shards.
//
// The order of steps 1 and 2 is load-bearing: a post that lands after the
// drain was sent at a source commit no older than the values read in step 1,
// so its timestamp is >= the horizon and belongs to a later window. Reading
// commits after draining would let a post slip below the window boundary.
//
// Determinism does not depend on inbox arrival order: events are keyed by
// (tick, epsilon, owner, oseq) — see event.go — where both owner and oseq are
// derived from the scheduling component, not from global interleaving, so
// each shard's local execution order is identical to the serial order
// restricted to that shard, for any worker count and any goroutine schedule.
package sim

import (
	"sync"
	"sync/atomic"
)

// RemoteReceiver is implemented by components that accept cross-shard
// deliveries — the destination-side endpoint of a cross-shard channel. The
// engine invokes ReceiveRemote on the receiver's own shard goroutine, with
// the shard's simulator quiescent, so the implementation may freely touch
// shard-local state and schedule events at the post's timestamp.
type RemoteReceiver interface {
	ReceiveRemote(at Tick, ptr any, aux int)
}

// ShardProbe observes one shard's conservative scheduler: horizon rounds,
// committed lookahead windows, cross-shard inbox traffic, lookahead stalls,
// and quiescence checks. Probes are attached before Run via SetShardProbe and
// are nil when engine introspection is disabled, so every call site is
// nil-guarded and the disabled path costs one branch.
//
// All methods except InboxPost are invoked on the owning shard's worker
// goroutine. InboxPost is invoked on the *posting* (source) shard's goroutine,
// so implementations must make it safe for concurrent use with the other
// methods (atomics suffice).
type ShardProbe interface {
	// Round is called once per scheduler pass with the computed horizon
	// (already clipped to the phase cap). saturated reports an unbounded
	// horizon: no upstream edge constrains this shard.
	Round(horizon Tick, saturated bool)
	// WindowCommitted is called after a lookahead window executes, with the
	// newly committed tick and the number of non-daemon events the window
	// drained.
	WindowCommitted(commit Tick, events uint64)
	// InboxPost is called after a cross-shard post lands in this shard's
	// inbox, with the inbox occupancy including the new post. Source-shard
	// goroutine; must be concurrency-safe.
	InboxPost(depth int)
	// InboxDrained is called after the shard applies a non-empty inbox batch.
	InboxDrained(batch int)
	// BlockedEnter/BlockedExit bracket the worker parking on its wake channel
	// because neither the inbox nor the horizon allowed progress.
	BlockedEnter()
	BlockedExit()
	// QuiesceCheck is called at each global work-count poll with the result.
	QuiesceCheck(quiesced bool)
}

// remotePost is one timestamped cross-shard message.
type remotePost struct {
	at  Tick
	tgt RemoteReceiver
	ptr any
	aux int
}

// inEdge is one incoming cross-shard dependency: the source shard and the
// minimum latency of any link from it, the lookahead bound.
type inEdge struct {
	src *shardState
	lat Tick
}

// shardState is the engine-side state of one shard: its inbox, its committed
// time, and its dependency edges. It is reachable from the Simulator via the
// shard field so Schedule can maintain the engine's global work count.
type shardState struct {
	id  int
	sim *Simulator
	eng *Engine

	// commit is the shard's committed time: every local event with
	// tick < commit has executed and its cross-shard sends are posted.
	// Written only by the owning worker, read by downstream shards.
	commit atomic.Uint64

	mu    sync.Mutex
	inbox []remotePost
	spare []remotePost // double buffer: drained batches swap in, zero steady-state alloc

	in  []inEdge
	out []*shardState

	// wake has capacity 1: a notify while the buffer is full is a no-op,
	// which is exactly the semantics needed (the worker re-derives all state
	// from commits and the inbox on each pass, so wake-ups can coalesce).
	wake chan struct{}

	// pendingPub is the shard's queued non-daemon event count as of its last
	// committed window, for cross-shard PendingNonDaemon aggregation.
	pendingPub atomic.Int64

	// probe observes this shard's scheduler; nil when engine introspection is
	// disabled. Set before Run and read-only afterwards.
	probe ShardProbe
}

// RemotePort is the source-side handle of a cross-shard link, created by
// Engine.Link. The source endpoint posts timestamped messages through it
// instead of scheduling directly on the (remote) destination simulator.
type RemotePort struct {
	src *shardState
	dst *shardState
	tgt RemoteReceiver
}

// SrcNow returns the current time of the sending shard. Source-side endpoint
// code must use this rather than its component Sim().Now(): an adopted
// endpoint's simulator is the destination shard's, whose clock is unrelated.
func (p *RemotePort) SrcNow() Time { return p.src.sim.now }

// Send posts a timestamped message to the destination shard's inbox.
// It is called from the source shard's goroutine.
func (p *RemotePort) Send(at Tick, ptr any, aux int) {
	d := p.dst
	d.eng.work.Add(1)
	d.mu.Lock()
	d.inbox = append(d.inbox, remotePost{at: at, tgt: p.tgt, ptr: ptr, aux: aux})
	depth := len(d.inbox)
	d.mu.Unlock()
	if d.probe != nil {
		d.probe.InboxPost(depth)
	}
	d.notify()
}

func (sh *shardState) notify() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// horizon returns the tick below which this shard may safely execute, given
// the currently committed times of its upstream shards. A shard with no
// incoming cross-shard links may run to completion.
func (sh *shardState) horizon() Tick {
	h := ^Tick(0)
	for i := range sh.in {
		c := Tick(sh.in[i].src.commit.Load())
		b := c + sh.in[i].lat
		if b < c {
			// The upstream shard ran to completion (committed the maximum
			// tick); saturate instead of wrapping to 0.
			b = ^Tick(0)
		}
		if b < h {
			h = b
		}
	}
	return h
}

// drain applies every queued inbox post on the shard's own goroutine and
// reports whether any post was applied. The mutex hand-off is the
// happens-before edge that transfers ownership of posted objects (flits)
// from the source shard to this one.
func (sh *shardState) drain() bool {
	sh.mu.Lock()
	batch := sh.inbox
	sh.inbox = sh.spare[:0]
	sh.mu.Unlock()
	if len(batch) == 0 {
		sh.spare = batch
		return false
	}
	for i := range batch {
		p := &batch[i]
		p.tgt.ReceiveRemote(p.at, p.ptr, p.aux)
		batch[i] = remotePost{}
	}
	sh.eng.work.Add(-int64(len(batch)))
	if sh.probe != nil {
		sh.probe.InboxDrained(len(batch))
	}
	sh.spare = batch
	return true
}

// Engine coordinates a set of shard simulators through conservative
// lookahead synchronization. Build one with NewEngine around the host
// simulator (shard 0), add shards, adopt components, declare cross-shard
// links, then call Run once.
type Engine struct {
	host   *Simulator
	shards []*shardState

	// work counts non-daemon events queued on any shard plus unapplied
	// inbox posts. Zero means the simulation is globally quiescent.
	work atomic.Int64

	stop   atomic.Bool
	finish atomic.Bool

	pmu    sync.Mutex
	panicV any
}

// NewEngine wraps the host simulator as shard 0 of a new engine. The host
// retains everything already built and scheduled on it; components moved to
// other shards afterwards must not have pending events (Adopt checks are the
// caller's responsibility — in practice components schedule only in response
// to traffic, which starts after Run).
func NewEngine(host *Simulator) *Engine {
	if host.shard != nil {
		panic("sim: simulator is already attached to an engine")
	}
	e := &Engine{host: host}
	hs := &shardState{id: 0, sim: host, eng: e, wake: make(chan struct{}, 1)}
	host.shard = hs
	e.shards = append(e.shards, hs)
	e.work.Store(int64(host.queue.len() - host.daemons))
	return e
}

// Host returns shard 0's simulator.
func (e *Engine) Host() *Simulator { return e.host }

// SetShardProbe attaches an observer to shard i's scheduler. It must be
// called before Run; the probe is read without synchronization by the worker
// goroutines afterwards.
func (e *Engine) SetShardProbe(i int, p ShardProbe) { e.shards[i].probe = p }

// ShardStatus is a point-in-time snapshot of one shard's engine state, for
// introspection endpoints. Commit and Pending are the shard's published
// values as of its last committed window; InboxDepth is the current undrained
// cross-shard post count.
type ShardStatus struct {
	Commit     Tick
	Pending    int64
	InboxDepth int
}

// ShardStatus returns shard i's current engine state. Safe to call from any
// goroutine while the engine runs.
func (e *Engine) ShardStatus(i int) ShardStatus {
	sh := e.shards[i]
	sh.mu.Lock()
	depth := len(sh.inbox)
	sh.mu.Unlock()
	return ShardStatus{
		Commit:     Tick(sh.commit.Load()),
		Pending:    sh.pendingPub.Load(),
		InboxDepth: depth,
	}
}

// NumShards returns the number of shards, including the host.
func (e *Engine) NumShards() int { return len(e.shards) }

// AddShard creates a new empty shard simulator sharing the host's seed and
// observer attachments, and returns it.
func (e *Engine) AddShard() *Simulator {
	s := NewSimulator(e.host.seed)
	s.verifier = e.host.verifier
	s.telemetry = e.host.telemetry
	sh := &shardState{id: len(e.shards), sim: s, eng: e, wake: make(chan struct{}, 1)}
	s.shard = sh
	e.shards = append(e.shards, sh)
	return s
}

// Adopt moves a component built against the host simulator onto the given
// shard's simulator: its Sim() — and therefore its clock, event queue, and
// Schedule calls — become the shard's. Only types embedding ComponentBase
// can be adopted.
func (e *Engine) Adopt(h Handler, to *Simulator) {
	rb, ok := h.(rebindable)
	if !ok {
		panic("sim: handler does not embed ComponentBase and cannot be adopted")
	}
	if to.shard == nil || to.shard.eng != e {
		panic("sim: Adopt target simulator is not a shard of this engine")
	}
	rb.rebind(to)
}

// Link declares a cross-shard delivery edge from src to dst with the given
// lookahead (the channel latency, which must be >= 1) and destination
// endpoint, returning the port the source-side endpoint posts through.
// Multiple links between the same shard pair are merged into one horizon
// edge using the minimum latency.
func (e *Engine) Link(src, dst *Simulator, latency Tick, tgt RemoteReceiver) *RemotePort {
	if latency == 0 {
		panic("sim: cross-shard link requires latency >= 1 for conservative lookahead")
	}
	if tgt == nil {
		panic("sim: cross-shard link requires a destination receiver")
	}
	ss, ds := src.shard, dst.shard
	if ss == nil || ds == nil || ss.eng != e || ds.eng != e {
		panic("sim: Link endpoints must be shards of this engine")
	}
	if ss == ds {
		panic("sim: Link endpoints must be distinct shards")
	}
	found := false
	for i := range ds.in {
		if ds.in[i].src == ss {
			if latency < ds.in[i].lat {
				ds.in[i].lat = latency
			}
			found = true
			break
		}
	}
	if !found {
		ds.in = append(ds.in, inEdge{src: ss, lat: latency})
		ss.out = append(ss.out, ds)
	}
	return &RemotePort{src: ss, dst: ds, tgt: tgt}
}

// Run executes the simulation across all shards until it is globally
// quiescent (no queued non-daemon events and no in-flight posts) or stopped,
// then finalizes. It returns the total non-daemon events executed and the
// latest LastWork time across shards — the simulation's logical end. Daemon
// events queued beyond the last real work (trailing watchdog/snapshot
// wake-ups) are deliberately not chased: they are pure observers, and forcing
// every shard to lock-step lookahead windows toward them would serialize the
// drain.
//
// Run is equivalent to RunUntil(^Tick(0)) followed by Finish. Checkpointing
// drivers use the phased form directly: step to a snapshot tick with
// RunUntil, settle cross-shard posts with DrainCross, serialize, repeat, and
// call Finish exactly once at the true end of the run.
func (e *Engine) Run() (uint64, Time) {
	e.RunUntil(^Tick(0))
	return e.Finish()
}

// RunUntil executes events across all shards until every shard has committed
// the given tick (every event strictly before it has executed), the
// simulation is globally quiescent, or it is stopped. Shards run their usual
// conservative windows with the horizon additionally clipped to the cap, so
// a capped phase executes exactly the serial RunUntil(cap) prefix of the
// run. A panic on any shard stops all workers and is re-raised here.
//
// RunUntil may be called repeatedly with increasing ticks; commit times
// persist across phases. After a capped phase, cross-shard posts sent by the
// final windows may still sit in inboxes — callers that need a complete
// global state at the cap (checkpointing) must call DrainCross before
// reading it.
func (e *Engine) RunUntil(tick Tick) {
	var wg sync.WaitGroup
	for _, sh := range e.shards {
		wg.Add(1)
		go func(sh *shardState) {
			defer wg.Done()
			e.runShard(sh, tick)
		}(sh)
	}
	wg.Wait()
	if e.panicV != nil {
		panic(e.panicV)
	}
}

// DrainCross applies every undrained cross-shard post on the calling
// goroutine. It must only be called between phases (no workers running), at
// which point every post targets the current or a later window; the posts
// become locally queued events on their destination shards, completing the
// global state for a snapshot.
func (e *Engine) DrainCross() {
	for _, sh := range e.shards {
		sh.drain()
	}
}

// Quiesced reports whether the simulation is globally quiescent: no queued
// non-daemon events on any shard and no undrained cross-shard posts. It is
// only meaningful between phases.
func (e *Engine) Quiesced() bool { return e.work.Load() == 0 }

// Stopped reports whether the run was halted by Stop on any shard.
func (e *Engine) Stopped() bool { return e.stop.Load() }

// SeedCommit marks every shard as having committed the given tick. Restore
// uses it after rebuilding state at a checkpoint tick T: every queued event
// is at T or later, so committing T is vacuously sound, and without it the
// first phase would crawl from tick 0 to T in empty lookahead windows. It
// also refreshes each shard's published pending count from its restored
// queue.
func (e *Engine) SeedCommit(tick Tick) {
	for _, sh := range e.shards {
		if Tick(sh.commit.Load()) < tick {
			sh.commit.Store(uint64(tick))
		}
		sh.pendingPub.Store(int64(sh.sim.queue.len() - sh.sim.daemons))
	}
}

// Finish finalizes a run driven by RunUntil phases: it totals the non-daemon
// events executed, computes the latest LastWork across shards, and flushes
// the host's periodic reporters exactly as a serial Run would. Call it once,
// after the last phase.
func (e *Engine) Finish() (uint64, Time) {
	var events uint64
	var end Time
	for _, sh := range e.shards {
		events += sh.sim.executed
		if end.Before(sh.sim.lastWork) {
			end = sh.sim.lastWork
		}
	}
	e.host.FinishMonitor()
	return events, end
}

func (e *Engine) wakeAll() {
	for _, sh := range e.shards {
		sh.notify()
	}
}

func (e *Engine) runShard(sh *shardState, cap Tick) {
	defer func() {
		if r := recover(); r != nil {
			e.pmu.Lock()
			if e.panicV == nil {
				e.panicV = r
			}
			e.pmu.Unlock()
			e.stop.Store(true)
			e.wakeAll()
		}
	}()
	for {
		if e.stop.Load() || e.finish.Load() {
			// finish persists across phases: once the simulation is globally
			// quiescent, a later capped phase must not dig into the trailing
			// daemon events a completed run deliberately leaves queued.
			return
		}
		// Horizon before drain — see the package comment for why.
		h := sh.horizon()
		if h > cap {
			h = cap
		}
		if sh.probe != nil {
			sh.probe.Round(h, h == ^Tick(0))
		}
		progressed := sh.drain()
		if committed := Tick(sh.commit.Load()); h > committed {
			n := sh.sim.runUntil(h, h == ^Tick(0))
			sh.pendingPub.Store(int64(sh.sim.queue.len() - sh.sim.daemons))
			sh.commit.Store(uint64(h))
			for _, d := range sh.out {
				d.notify()
			}
			if sh.probe != nil {
				sh.probe.WindowCommitted(h, n)
			}
			progressed = true
		}
		if sh.sim.stopped {
			// Stop on any shard (error paths, test drivers) halts the run.
			e.stop.Store(true)
			e.wakeAll()
			return
		}
		quiesced := e.work.Load() == 0
		if sh.probe != nil {
			sh.probe.QuiesceCheck(quiesced)
		}
		if quiesced {
			e.finish.Store(true)
			e.wakeAll()
			return
		}
		if e.finish.Load() {
			return
		}
		if Tick(sh.commit.Load()) >= cap {
			// Phase cap reached: this shard's prefix is complete. The check
			// sits after the stop/finish checks and before the sleep so a
			// capped shard never blocks on a wake that will not come.
			return
		}
		if !progressed {
			if sh.probe != nil {
				sh.probe.BlockedEnter()
			}
			<-sh.wake
			if sh.probe != nil {
				sh.probe.BlockedExit()
			}
		}
	}
}
