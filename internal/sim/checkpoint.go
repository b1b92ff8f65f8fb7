package sim

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"supersim/internal/snapshot"
)

// This file is the simulator's checkpoint surface: serializing the PRNG
// streams and scheduling counters, exporting the event queue keyed by its
// total order, and re-injecting a restored queue into a freshly built
// simulator. The container format and component walk live in internal/core;
// this file only knows about sim-owned state.

// EventRecord is one queued event, keyed by the event queue's total order
// (Tick, Eps, Owner, Oseq) (see event.go). The key names the scheduling
// component by its construction-order number, not by a pointer, so a sorted
// record list is identical for any two runs that reach the same state, and
// restore can re-inject each event into a freshly built simulation. No
// component schedules an event with a context, so a record has none.
type EventRecord struct {
	Tick   Tick
	Eps    Epsilon
	Owner  uint32
	Oseq   uint64
	Type   int
	Daemon bool
}

// State codes the record.
func (r *EventRecord) State(c *snapshot.Codec) {
	snapshot.Uint(c, &r.Tick)
	snapshot.Uint(c, &r.Eps)
	c.U32(&r.Owner)
	c.U64(&r.Oseq)
	c.Int(&r.Type)
	c.Bool(&r.Daemon)
}

// after reports whether r sorts after p in the event queue's total order.
func (r *EventRecord) after(p *EventRecord) bool {
	if r.Tick != p.Tick {
		return r.Tick > p.Tick
	}
	if r.Eps != p.Eps {
		return r.Eps > p.Eps
	}
	if r.Owner != p.Owner {
		return r.Owner > p.Owner
	}
	return r.Oseq > p.Oseq
}

// ExportEvents returns every queued event as a record. The result is in queue
// (arbitrary) order; callers sort it with SortEventRecords. An event with a
// context cannot be re-bound at restore and is reported as an error.
func (s *Simulator) ExportEvents() ([]EventRecord, error) {
	recs := make([]EventRecord, 0, s.queue.len())
	var err error
	s.queue.each(func(e *Event) bool {
		if e.Context != nil {
			err = fmt.Errorf("sim: cannot snapshot an event with context %T", e.Context)
			return false
		}
		recs = append(recs, EventRecord{
			Tick: e.Time.Tick, Eps: e.Time.Eps,
			Owner: e.owner, Oseq: e.oseq,
			Type: e.Type, Daemon: e.daemon,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// SortEventRecords sorts records by the event queue's total order
// (tick, epsilon, owner, oseq), producing the queue layout stored in
// snapshots.
func SortEventRecords(recs []EventRecord) {
	sort.Slice(recs, func(i, j int) bool { return recs[j].after(&recs[i]) })
}

// ResetQueue discards every queued event. Restore uses it to drop the
// initial events a fresh build schedules (application init, observer
// daemons) before re-injecting the snapshot's queue, which already contains
// their in-flight successors.
func (s *Simulator) ResetQueue() {
	if s.running {
		panic("sim: ResetQueue while running")
	}
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
	s.injected = 0
}

// InjectEvent enqueues a restored event with its exact saved ordering key,
// bypassing the per-handler sequence counters (those are restored separately
// as component state). It refills a queue that ResetQueue emptied, in queue
// order: it refuses a record once anything else has entered the queue or
// run since then, a record that does not sort after the one injected before
// it, and one whose Oseq its handler's schedule counter has not reached. The
// queue files one owner's events at one timestamp in arrival order, and
// these rules keep that order the oseq order. The handler must belong to
// this simulator.
func (s *Simulator) InjectEvent(h Handler, r EventRecord) error {
	if h == nil {
		panic("sim: InjectEvent with nil handler")
	}
	if s.running {
		panic("sim: InjectEvent while running")
	}
	switch {
	case s.injected != s.queue.len():
		return fmt.Errorf("sim: InjectEvent into a queue that has run or been scheduled into since ResetQueue")
	case s.injected > 0 && !r.after(&s.lastInjected):
		return fmt.Errorf("sim: event at %v owner %d oseq %d does not sort after the previous one", Time{r.Tick, r.Eps}, r.Owner, r.Oseq)
	case r.Oseq > h.order().seq:
		return fmt.Errorf("sim: event owner %d oseq %d is past its handler's schedule count %d", r.Owner, r.Oseq, h.order().seq)
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
	e.Context = nil
	e.daemon = r.Daemon
	e.owner, e.oseq = r.Owner, r.Oseq
	if r.Daemon {
		s.daemons++
	}
	s.queue.push(e)
	s.injected++
	s.lastInjected = r
	return nil
}

// SetNow moves the simulator clock to a restored checkpoint time. Restore
// sets it to {tick: T, eps: 0}; all queued events are at T or
// later, so the time-went-backwards invariant holds for the continuation.
func (s *Simulator) SetNow(t Time) {
	if s.running {
		panic("sim: SetNow while running")
	}
	s.now = t
}

// SetProgress overwrites the executed-event and last-work counters. Restore
// seeds them with the totals at the checkpoint, so the continuation's counts
// are cumulative from the start of the run.
func (s *Simulator) SetProgress(executed uint64, lastWork Time) {
	if s.running {
		panic("sim: SetProgress while running")
	}
	s.executed = executed
	s.lastWork = lastWork
}

// State codes the simulator-owned scalar state: the construction-order key
// counter and every DeriveRand stream. It opens a snapshot walk, so it empties the walk's owner table.
// Progress counters (executed, lastWork) are coded by the container, which
// restores them with SetProgress.
//
// The derived-stream registry must match by order and name — a mismatch
// means the rebuilt component graph differs from the one that took the
// snapshot, so restoring state into it would be incoherent.
func (s *Simulator) State(c *snapshot.Codec) {
	clear(s.owners)
	c.U32(&s.orderGen)
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

// OrderState codes the component's scheduling identity: its
// construction-order key (an integrity check: the rebuilt component must
// occupy the same construction-order slot) and its per-handler schedule
// counter, which future events' oseq values continue from. h is the handler
// the component's events are queued for — the component itself, or the
// architecture embedding it — and the walk's owner table maps the key to it,
// so a snapshot can only hold events whose owner the walk coded.
func (b *ComponentBase) OrderState(c *snapshot.Codec, h Handler) {
	key := b.ord.key
	c.U32(&key)
	if c.Err() == nil && key != b.ord.key {
		c.Failf("component %q has construction-order key %d, snapshot says %d — component graph mismatch", b.name, b.ord.key, key)
		return
	}
	c.U64(&b.ord.seq)
	if h.order() != &b.ord {
		c.Failf("component %q codes its events' owner as %T, which is another handler", b.name, h)
		return
	}
	if _, dup := b.sim.owners[key]; dup {
		c.Failf("component %q: construction-order key %d coded twice in one walk", b.name, key)
		return
	}
	if b.sim.owners == nil {
		b.sim.owners = map[uint32]Handler{}
	}
	b.sim.owners[key] = h
}

// Owner returns the handler the current snapshot walk coded under the
// construction-order key, and whether it coded one.
func (s *Simulator) Owner(key uint32) (Handler, bool) {
	h, ok := s.owners[key]
	return h, ok
}
