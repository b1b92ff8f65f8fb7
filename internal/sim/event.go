package sim

import "math/bits"

// Handler is anything that can execute events. Every handler is a component:
// models embed ComponentBase and implement ProcessEvent to receive the events
// they scheduled, and HandlerFunc wraps a function in one. order is
// unexported, so no other type can be a Handler, and every event has an
// owner the queue orders by and a snapshot can name.
type Handler interface {
	// ProcessEvent executes an event previously scheduled by this handler.
	// The event object is owned by the simulator and recycled after the call
	// returns; handlers must not retain it.
	ProcessEvent(ev *Event)
	order() *eventOrder
}

// Event is a unit of future work in the simulation. It carries its execution
// time, the handler that will perform the execution, and optional handler
// specific data (an integer type tag and a context pointer).
type Event struct {
	Time    Time
	Handler Handler
	Type    int
	Context any

	// owner and oseq are the deterministic tiebreak among events at an
	// identical (tick, epsilon): owner is the scheduling handler's
	// construction-order key and oseq its per-handler schedule counter.
	// Unlike a global schedule-order sequence, this key is independent of
	// the interleaving of *different* handlers' Schedule calls, and it names
	// the owner by construction order rather than by pointer — which is what
	// lets a snapshot store the queue and restore re-inject it exactly.
	owner  uint32
	daemon bool // scheduled with ScheduleDaemon; excluded from PendingNonDaemon
	oseq   uint64

	// next links the events of one unopened timestamp bucket in arrival
	// order (see eventQueue). daemon sits in owner's padding so the link
	// leaves the struct at 80 bytes, its size before the queue was bucketed.
	next *Event
}

// The event queue is a calendar queue keyed by timestamp. A simulated network
// executes hundreds to thousands of events at each (tick, epsilon) and
// schedules almost all of them a few ticks ahead, so only a few dozen distinct
// timestamps are pending at once: ordering the timestamps, not the events,
// takes the per-event cost from a log2(pending) sift of four-field compares to
// an append, plus one sort per timestamp.
//
//   - Every pending timestamp has one bucket: its events, linked through
//     Event.next in arrival order. The links are the only per-event storage,
//     and events come from the simulator's one free list, so queue memory
//     follows the pending-event high-water, never buckets x largest bucket.
//   - Buckets are found through a hash table of the pending timestamps and
//     ordered by a binary min-heap over those timestamps alone.
//   - When a bucket becomes the minimum it is opened: its events are copied
//     into one shared array, sorted once by (owner, oseq), and handed out by a
//     cursor. Schedule requires t > now while running, so nothing is added to
//     an open bucket by the running simulation. A paused simulation can add to
//     it, or ahead of it (Schedule after Stop, InjectEvent); the push then
//     closes the bucket again — the undrained events go back on its list in
//     sorted order — and the next pop reopens whichever bucket is the minimum.
//
// The execution order is exactly (tick, epsilon, owner, oseq), as it is under
// any priority queue over that key. Two events of the same handler at the same
// time execute in schedule order (oseq); events of different handlers at the
// same time execute in handler construction order (owner), which is fixed at
// build time.
type eventQueue struct {
	n int // pending events

	buckets []bucket  // slab; slot 0 is the "no bucket" sentinel and never used
	spare   []int32   // recycled slab slots
	times   []tsEntry // min-heap over the pending timestamps
	table   []tsEntry // the same entries hashed by timestamp: open addressing, b == 0 marks a free slot
	shift   uint      // 64 - log2(len(table))

	// The open bucket. sorted[cur:] are its undrained events in execution
	// order, each key an owner in the high half and an index into evs in the
	// low half: pointer-free, so sorting never runs a GC write barrier.
	open   int32
	cur    int
	sorted []uint64
	tmp    []uint64 // the radix passes' second buffer
	evs    []*Event // keeps its pointers after a drain: stale ones number at most the largest bucket
}

// bucket is the events pending at one timestamp, in arrival order. Its
// timestamp is in the tsEntry that names it.
type bucket struct {
	head, tail *Event
}

// tsEntry names the bucket of one pending timestamp. 16 bytes, pointer-free.
type tsEntry struct {
	tick Tick
	eps  Epsilon
	b    int32
}

func (a *tsEntry) before(b *tsEntry) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return a.eps < b.eps
}

func (q *eventQueue) len() int { return q.n }

// nextTick returns the tick of the earliest pending event. The queue must not
// be empty.
func (q *eventQueue) nextTick() Tick { return q.times[0].tick }

func (q *eventQueue) push(e *Event) {
	t := e.Time
	if q.open != 0 {
		// The open bucket is always the minimum.
		if first := &q.times[0]; !(Time{first.tick, first.eps}).Before(t) {
			q.closeOpen()
		}
	}
	if 2*len(q.times) >= len(q.table) {
		q.growTable()
	}
	// With the few dozen timestamps a simulation has pending, the first probe
	// nearly always hits.
	mask := len(q.table) - 1
	slot := q.home(t.Tick, t.Eps)
	for s := &q.table[slot]; s.b != 0 && (s.tick != t.Tick || s.eps != t.Eps); s = &q.table[slot] {
		slot = (slot + 1) & mask
	}
	i := q.table[slot].b
	if i == 0 {
		i = q.addBucket(t, slot)
	}
	q.buckets[i].link(e)
	q.n++
}

func (b *bucket) link(e *Event) {
	e.next = nil
	if b.tail == nil {
		b.head = e
	} else {
		b.tail.next = e
	}
	b.tail = e
}

// home returns the table slot a timestamp hashes to. It is a Fibonacci hash,
// so consecutive ticks, ticks a clock period apart and small epsilons all
// spread evenly.
func (q *eventQueue) home(tick Tick, eps Epsilon) int {
	return int((tick + uint64(eps)<<32) * 0x9e3779b97f4a7c15 >> q.shift)
}

// addBucket creates the bucket for t, a timestamp with nothing pending, and
// enters it in the hash table at slot, the free slot that ended t's probe run.
func (q *eventQueue) addBucket(t Time, slot int) int32 {
	var i int32
	if n := len(q.spare); n > 0 {
		i = q.spare[n-1]
		q.spare = q.spare[:n-1]
	} else {
		i = int32(len(q.buckets))
		q.buckets = append(q.buckets, bucket{})
	}
	item := tsEntry{tick: t.Tick, eps: t.Eps, b: i}
	q.table[slot] = item

	q.times = append(q.times, item)
	a := q.times
	j := len(a) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !item.before(&a[parent]) {
			break
		}
		a[j] = a[parent]
		j = parent
	}
	a[j] = item
	return i
}

// growTable doubles the hash table, keeping it at most half full, and
// re-enters every pending timestamp. The first call readies the zero queue.
func (q *eventQueue) growTable() {
	if len(q.buckets) == 0 {
		q.buckets = append(q.buckets, bucket{}) // the sentinel
	}
	n := max(64, 2*len(q.table))
	q.table = make([]tsEntry, n)
	q.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, e := range q.times {
		slot := q.home(e.tick, e.eps)
		for q.table[slot].b != 0 {
			slot = (slot + 1) & (n - 1)
		}
		q.table[slot] = e
	}
}

// unhash removes the entry for a pending timestamp from the hash table,
// moving later entries of its probe run back so that none is cut off from its
// home slot (Knuth 6.4, algorithm R).
func (q *eventQueue) unhash(tick Tick, eps Epsilon) {
	mask := len(q.table) - 1
	free := q.home(tick, eps)
	for s := &q.table[free]; s.tick != tick || s.eps != eps; s = &q.table[free] {
		free = (free + 1) & mask
	}
	for probe := (free + 1) & mask; q.table[probe].b != 0; probe = (probe + 1) & mask {
		// The entry at probe may move into the free slot unless its home lies
		// cyclically after free, up to probe.
		h := q.home(q.table[probe].tick, q.table[probe].eps)
		if (probe-h)&mask >= (probe-free)&mask {
			q.table[free] = q.table[probe]
			free = probe
		}
	}
	q.table[free] = tsEntry{}
}

// pop removes and returns the earliest pending event. The queue must not be
// empty.
func (q *eventQueue) pop() *Event {
	if q.open == 0 {
		q.openMin()
	}
	e := q.evs[uint32(q.sorted[q.cur])]
	q.cur++
	q.n--
	if q.cur == len(q.sorted) {
		q.retireMin()
	}
	return e
}

// openMin opens the bucket with the earliest timestamp.
func (q *eventQueue) openMin() {
	i := q.times[0].b
	b := &q.buckets[i]
	keys, evs := q.sorted[:0], q.evs[:0]
	or, and := uint32(0), ^uint32(0)
	for e := b.head; e != nil; {
		keys = append(keys, uint64(e.owner)<<32|uint64(len(evs)))
		evs = append(evs, e)
		or |= e.owner
		and &= e.owner
		next := e.next
		e.next = nil
		e = next
	}
	b.head, b.tail = nil, nil
	q.open, q.cur, q.evs = i, 0, evs

	// Arrival order is oseq order within one owner (Schedule takes oseq from
	// the owner's counter, and InjectEvent takes records only in queue order
	// and below that counter), and the evs index in a key's low half is
	// arrival order, so sorting the keys as plain integers sorts by
	// (owner, oseq).
	if len(keys) > insertionSortMax {
		keys, q.tmp = radixSortOwners(keys, q.tmp, or&^and)
	} else {
		for j := 1; j < len(keys); j++ {
			k := keys[j]
			m := j
			for ; m > 0 && keys[m-1] > k; m-- {
				keys[m] = keys[m-1]
			}
			keys[m] = k
		}
	}
	q.sorted = keys
}

// insertionSortMax is the bucket size up to which an insertion sort beats the
// radix passes' fixed cost of clearing and summing 256 counters.
const insertionSortMax = 24

// radixSortOwners sorts keys by their high 32 bits with stable byte-wise
// passes, least significant first, skipping the bytes in which no two keys
// differ (varying has a bit set wherever two owners differ). It returns the
// sorted slice and the other buffer, which swap roles on every pass.
func radixSortOwners(keys, tmp []uint64, varying uint32) (sorted, other []uint64) {
	if cap(tmp) < len(keys) {
		tmp = make([]uint64, len(keys), cap(keys))
	}
	tmp = tmp[:len(keys)]
	for shift := 32; shift < 64; shift += 8 {
		if byte(varying>>(shift-32)) == 0 {
			continue
		}
		var pos [256]int
		for _, k := range keys {
			pos[byte(k>>shift)]++
		}
		sum := 0
		for d, c := range pos {
			pos[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := byte(k >> shift)
			tmp[pos[d]] = k
			pos[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys, tmp
}

// retireMin removes the drained open bucket from the queue.
func (q *eventQueue) retireMin() {
	q.unhash(q.times[0].tick, q.times[0].eps)
	q.spare = append(q.spare, q.open)
	q.open, q.cur, q.sorted = 0, 0, q.sorted[:0]

	a := q.times
	n := len(a) - 1
	last := a[n]
	q.times = a[:n]
	if n == 0 {
		return
	}
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		if l >= n {
			break
		}
		m := l
		if r < n && a[r].before(&a[l]) {
			m = r
		}
		if !a[m].before(&last) {
			break
		}
		a[j] = a[m]
		j = m
	}
	a[j] = last
}

// closeOpen turns the open bucket back into a plain one: its undrained events
// return to its list, in sorted order.
func (q *eventQueue) closeOpen() {
	b := &q.buckets[q.open]
	for _, k := range q.sorted[q.cur:] {
		b.link(q.evs[uint32(k)])
	}
	q.open, q.cur, q.sorted = 0, 0, q.sorted[:0]
}

// each calls fn for every pending event, in no particular order, until fn
// returns false.
func (q *eventQueue) each(fn func(*Event) bool) {
	for _, te := range q.times {
		if te.b == q.open {
			for _, k := range q.sorted[q.cur:] {
				if !fn(q.evs[uint32(k)]) {
					return
				}
			}
			continue
		}
		for e := q.buckets[te.b].head; e != nil; e = e.next {
			if !fn(e) {
				return
			}
		}
	}
}
