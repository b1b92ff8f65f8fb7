package sim

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"supersim/internal/snapshot"
)

// This file is the simulator's checkpoint surface: serializing the PRNG
// streams and scheduling counters, exporting the event queue in partition-
// independent form, and re-injecting a restored queue into a freshly built
// simulator. The container format and component walk live in internal/core;
// this file only knows about sim-owned state.

// EventRecord is one queued event in partition-independent form. The
// (Tick, Eps, Owner, Oseq) key is the event queue's total order (see
// event.go), so a merged, key-sorted record list is identical no matter how
// the simulation was sharded when it was exported — which is what lets a
// snapshot taken at one worker count restore into any other.
//
// Context is restricted to the two shapes production components use (nil or
// a plain int); ExportEvents rejects anything else rather than guessing at a
// serialization.
type EventRecord struct {
	Tick   Tick
	Eps    Epsilon
	Owner  uint32
	Oseq   uint64
	Type   int
	Daemon bool
	HasCtx bool // Context is an int (the only non-nil production shape)
	Ctx    int
}

// State codes the record.
func (r *EventRecord) State(c *snapshot.Codec) {
	snapshot.Uint(c, &r.Tick)
	snapshot.Uint(c, &r.Eps)
	c.U32(&r.Owner)
	c.U64(&r.Oseq)
	c.Int(&r.Type)
	c.Bool(&r.Daemon)
	c.Bool(&r.HasCtx)
	if r.HasCtx {
		c.Int(&r.Ctx)
	}
}

// ExportEvents returns every queued event as a record. The result is in queue
// (arbitrary) order; callers merge records across shards and sort with
// SortEventRecords. Events whose handler is not a keyed component, or whose
// context is neither nil nor int, cannot be re-bound at restore and are
// reported as errors.
func (s *Simulator) ExportEvents() ([]EventRecord, error) {
	recs := make([]EventRecord, 0, s.queue.len())
	var err error
	s.queue.each(func(e *Event) bool {
		if e.owner == ^uint32(0) {
			err = fmt.Errorf("sim: cannot snapshot event for foreign handler %T (no construction-order key)", e.Handler)
			return false
		}
		r := EventRecord{
			Tick: e.Time.Tick, Eps: e.Time.Eps,
			Owner: e.owner, Oseq: e.oseq,
			Type: e.Type, Daemon: e.daemon,
		}
		switch c := e.Context.(type) {
		case nil:
		case int:
			r.HasCtx, r.Ctx = true, c
		default:
			err = fmt.Errorf("sim: cannot snapshot event context of type %T (only nil and int are serializable)", c)
			return false
		}
		recs = append(recs, r)
		return true
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// SortEventRecords sorts records by the event queue's total order
// (tick, epsilon, owner, oseq), producing the partition-independent queue
// layout stored in snapshots.
func SortEventRecords(recs []EventRecord) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.Tick != b.Tick {
			return a.Tick < b.Tick
		}
		if a.Eps != b.Eps {
			return a.Eps < b.Eps
		}
		if a.Owner != b.Owner {
			return a.Owner < b.Owner
		}
		return a.Oseq < b.Oseq
	})
}

// ResetQueue discards every queued event. Restore uses it to drop the
// initial events a fresh build schedules (application init, observer
// daemons) before re-injecting the snapshot's queue, which already contains
// their in-flight successors. The engine work count, if any, is kept
// consistent.
func (s *Simulator) ResetQueue() {
	if s.running {
		panic("sim: ResetQueue while running")
	}
	nonDaemon := s.queue.len() - s.daemons
	for s.queue.len() > 0 {
		e := s.queue.pop()
		e.Handler = nil
		e.Context = nil
		e.daemon = false
		if len(s.free) < maxEventFreeList {
			s.free = append(s.free, e)
		}
	}
	s.daemons = 0
	if sh := s.shard; sh != nil && nonDaemon > 0 {
		//sslint:allow shardsafety — the engine's global work counter is its sanctioned shared-memory seam
		sh.eng.work.Add(-int64(nonDaemon))
	}
}

// InjectEvent enqueues a restored event with its exact saved ordering key,
// bypassing the per-handler sequence counters (those are restored separately
// as component state). The handler must belong to this simulator.
func (s *Simulator) InjectEvent(h Handler, r EventRecord) {
	if h == nil {
		panic("sim: InjectEvent with nil handler")
	}
	if s.running {
		panic("sim: InjectEvent while running")
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = &Event{}
	}
	e.Time = Time{Tick: r.Tick, Eps: r.Eps}
	e.Handler = h
	e.Type = r.Type
	if r.HasCtx {
		e.Context = r.Ctx
	} else {
		e.Context = nil
	}
	e.daemon = r.Daemon
	e.owner, e.oseq = r.Owner, r.Oseq
	if r.Daemon {
		s.daemons++
	} else if sh := s.shard; sh != nil {
		//sslint:allow shardsafety — the engine's global work counter is its sanctioned shared-memory seam
		sh.eng.work.Add(1)
	}
	s.queue.push(e)
}

// SetNow moves the simulator clock to a restored checkpoint time. Restore
// sets every shard to {tick: T, eps: 0}; all queued events are at T or
// later, so the time-went-backwards invariant holds for the continuation.
func (s *Simulator) SetNow(t Time) {
	if s.running {
		panic("sim: SetNow while running")
	}
	s.now = t
}

// SetProgress overwrites the executed-event and last-work counters. Restore
// seeds the host simulator with the run-wide totals at the checkpoint (a
// sharded snapshot's per-shard split is partition-dependent, so only the
// totals are stored) and leaves router shards at zero; cumulative totals then
// continue correctly under any worker count.
func (s *Simulator) SetProgress(executed uint64, lastWork Time) {
	if s.running {
		panic("sim: SetProgress while running")
	}
	s.executed = executed
	s.lastWork = lastWork
}

// State codes the simulator-owned scalar state: scheduling counters and
// every PRNG stream (the base generator plus all DeriveRand streams). For
// sharded runs this is called on the host simulator only — order keys are
// handed out by the host during the build, shard base generators are never
// drawn from, and DeriveRand streams are all derived against the host
// (components derive before adoption). Progress counters (executed,
// lastWork) are partition-dependent per simulator, so the container stores
// run-wide totals instead and restores them with SetProgress.
//
// The derived-stream registry must match by order and name — a mismatch
// means the rebuilt component graph differs from the one that took the
// snapshot, so restoring state into it would be incoherent.
func (s *Simulator) State(c *snapshot.Codec) {
	c.U32(&s.orderGen)
	c.U64(&s.seqGen)
	statePCG(c, s.pcg, "base PRNG")
	n := uint64(len(s.derived))
	c.U64(&n)
	if c.Err() == nil && n != uint64(len(s.derived)) {
		c.Failf("snapshot has %d derived PRNG streams, rebuilt simulator has %d", n, len(s.derived))
		return
	}
	for i := range s.derived {
		name := s.derived[i].name
		c.Str(&name)
		if c.Err() == nil && name != s.derived[i].name {
			c.Failf("derived PRNG stream %d is %q in snapshot, %q in rebuilt simulator", i, name, s.derived[i].name)
			return
		}
		statePCG(c, s.derived[i].pcg, "derived PRNG "+name)
	}
}

func statePCG(c *snapshot.Codec, p *rand.PCG, what string) {
	var b []byte
	if !c.Loading() {
		var err error
		if b, err = p.MarshalBinary(); err != nil {
			// rand.PCG's MarshalBinary cannot fail; a failure here is a stdlib
			// contract change, not a recoverable condition.
			panic(fmt.Sprintf("sim: PCG marshal failed: %v", err))
		}
	}
	c.Blob(&b)
	if c.Loading() && c.Err() == nil {
		if err := p.UnmarshalBinary(b); err != nil {
			c.Failf("%s: %v", what, err)
		}
	}
}

// OrderKey returns the handler's construction-order key — the partition-
// independent component identity that event records are keyed by. Restore
// maps keys back to handlers by walking the rebuilt component graph.
func (c *ComponentBase) OrderKey() uint32 { return c.ord.key }

// OrderState codes the component's scheduling identity: its
// construction-order key (an integrity check: the rebuilt component must
// occupy the same construction-order slot) and its per-handler schedule
// counter, which future events' oseq values continue from.
func (b *ComponentBase) OrderState(c *snapshot.Codec) {
	key := b.ord.key
	c.U32(&key)
	if c.Err() == nil && key != b.ord.key {
		c.Failf("component %q has construction-order key %d, snapshot says %d — component graph mismatch", b.name, b.ord.key, key)
		return
	}
	c.U64(&b.ord.seq)
}
