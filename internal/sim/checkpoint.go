package sim

import (
	"fmt"
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

// Save appends the record to the encoder.
func (r *EventRecord) Save(e *snapshot.Encoder) {
	e.U64(uint64(r.Tick))
	e.U32(uint32(r.Eps))
	e.U32(r.Owner)
	e.U64(r.Oseq)
	e.Int(r.Type)
	e.Bool(r.Daemon)
	e.Bool(r.HasCtx)
	if r.HasCtx {
		e.Int(r.Ctx)
	}
}

// Load reads a record written by Save.
func (r *EventRecord) Load(d *snapshot.Decoder) error {
	r.Tick = Tick(d.U64())
	r.Eps = Epsilon(d.U32())
	r.Owner = d.U32()
	r.Oseq = d.U64()
	r.Type = d.Int()
	r.Daemon = d.Bool()
	r.HasCtx = d.Bool()
	if r.HasCtx {
		r.Ctx = d.Int()
	}
	return d.Err()
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

// SaveState serializes the simulator-owned scalar state: scheduling
// counters and every PRNG stream (the base generator plus all DeriveRand
// streams). For sharded runs this is called on the host simulator only —
// order keys are handed out by the host during the build, shard base
// generators are never drawn from, and DeriveRand streams are all derived
// against the host (components derive before adoption). Progress counters
// (executed, lastWork) are partition-dependent per simulator, so the
// container stores run-wide totals instead and restores them with
// SetProgress.
func (s *Simulator) SaveState(e *snapshot.Encoder) {
	e.U32(s.orderGen)
	e.U64(s.seqGen)
	e.Blob(mustMarshalPCG(s.pcg))
	e.U64(uint64(len(s.derived)))
	for i := range s.derived {
		e.Str(s.derived[i].name)
		e.Blob(mustMarshalPCG(s.derived[i].pcg))
	}
}

// LoadState restores the counterpart of SaveState onto a freshly built
// simulator. The derived-stream registry must match by order and name — a
// mismatch means the rebuilt component graph differs from the one that took
// the snapshot, so restoring state into it would be incoherent.
func (s *Simulator) LoadState(d *snapshot.Decoder) error {
	s.orderGen = d.U32()
	s.seqGen = d.U64()
	if err := unmarshalPCG(s.pcg, d.Blob()); err != nil {
		return d.Failf("base PRNG: %v", err)
	}
	n := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	if n != uint64(len(s.derived)) {
		return d.Failf("snapshot has %d derived PRNG streams, rebuilt simulator has %d", n, len(s.derived))
	}
	for i := range s.derived {
		name := d.Str()
		if d.Err() != nil {
			return d.Err()
		}
		if name != s.derived[i].name {
			return d.Failf("derived PRNG stream %d is %q in snapshot, %q in rebuilt simulator", i, name, s.derived[i].name)
		}
		if err := unmarshalPCG(s.derived[i].pcg, d.Blob()); err != nil {
			return d.Failf("derived PRNG %q: %v", name, err)
		}
	}
	return d.Err()
}

func mustMarshalPCG(p interface{ MarshalBinary() ([]byte, error) }) []byte {
	b, err := p.MarshalBinary()
	if err != nil {
		// rand.PCG's MarshalBinary cannot fail; a failure here is a stdlib
		// contract change, not a recoverable condition.
		panic(fmt.Sprintf("sim: PCG marshal failed: %v", err))
	}
	return b
}

func unmarshalPCG(p interface{ UnmarshalBinary([]byte) error }, b []byte) error {
	if b == nil {
		return fmt.Errorf("missing PCG state")
	}
	return p.UnmarshalBinary(b)
}

// OrderKey returns the handler's construction-order key — the partition-
// independent component identity that event records are keyed by. Restore
// maps keys back to handlers by walking the rebuilt component graph.
func (c *ComponentBase) OrderKey() uint32 { return c.ord.key }

// SaveOrder serializes the component's scheduling identity: its
// construction-order key (as an integrity check) and its per-handler
// schedule counter, which future events' oseq values continue from.
func (c *ComponentBase) SaveOrder(e *snapshot.Encoder) {
	e.U32(c.ord.key)
	e.U64(c.ord.seq)
}

// LoadOrder restores the counterpart of SaveOrder, verifying that the
// rebuilt component occupies the same construction-order slot.
func (c *ComponentBase) LoadOrder(d *snapshot.Decoder) error {
	key := d.U32()
	seq := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	if key != c.ord.key {
		return d.Failf("component %q has construction-order key %d, snapshot says %d — component graph mismatch", c.name, c.ord.key, key)
	}
	c.ord.seq = seq
	return nil
}
