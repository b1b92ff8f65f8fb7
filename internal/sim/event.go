package sim

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
// schedules almost all of them a few ticks ahead, so only a few dozen to a
// hundred distinct timestamps are pending at once: ordering the timestamps,
// not the events, takes the per-event cost from a log2(pending) sift of
// four-field compares to an append, plus one sort per timestamp.
//
//   - Every pending timestamp has one bucket: its events, linked through
//     Event.next in arrival order. The links are the only per-event storage,
//     and events come from the simulator's one free list, so queue memory
//     follows the pending-event high-water, never buckets x largest bucket.
//   - The buckets sit in one FIFO in timestamp order. A push tries the
//     bucket the previous push went to (about half of the pushes, or more,
//     go to the same one), else binary-searches the FIFO for the event's
//     timestamp and, if none is pending, inserts a bucket there, moving
//     every later one back a slot. A new timestamp is created once and then
//     shared by every event scheduled for it, so few pushes move anything
//     (under 4% on the benchmark workloads).
//   - The front bucket is opened when the simulator reaches it: its events
//     are copied into one shared array, sorted once by (owner, oseq), and
//     handed out by a cursor; once drained it is popped. Schedule requires
//     t > now while running, so nothing is added to an open bucket by the
//     running simulation. A paused simulation can add to it, or ahead of it
//     (Schedule after Stop, InjectEvent); the push then closes the bucket
//     again — the undrained events go back on its list in sorted order — and
//     the next pop reopens whichever bucket is at the front.
//
// The execution order is exactly (tick, epsilon, owner, oseq), as it is under
// any priority queue over that key. Two events of the same handler at the same
// time execute in schedule order (oseq); events of different handlers at the
// same time execute in handler construction order (owner), which is fixed at
// build time.
type eventQueue struct {
	n     int          // pending events
	times FIFO[bucket] // one bucket per pending timestamp, earliest first
	last  int          // index in times.Live() of the last push's bucket: a hint, checked before use

	// The open bucket, when open is set, is times.Front(). sorted[cur:] are
	// its undrained events in execution order, each key an owner in the high
	// half and an index into evs in the low half: pointer-free, so sorting
	// never runs a GC write barrier.
	open   bool
	cur    int
	sorted []uint64
	tmp    []uint64 // the radix passes' second buffer
	evs    []*Event // keeps its pointers after a drain: stale ones number at most the largest bucket
}

// bucket is the events pending at one timestamp, in arrival order.
type bucket struct {
	t          Time
	head, tail *Event
}

func (q *eventQueue) len() int { return q.n }

// nextTick returns the tick of the earliest pending event. The queue must not
// be empty.
func (q *eventQueue) nextTick() Tick { return q.times.Front().t.Tick }

func (q *eventQueue) push(e *Event) {
	t := e.Time
	if q.open && !q.times.Front().t.Before(t) {
		q.closeOpen() // e goes into or ahead of the open bucket
	}
	// i is the first bucket not before t. A push usually goes to the bucket
	// the previous push went to, so that one is tried before the search.
	live := q.times.Live()
	i := q.last
	if uint(i) >= uint(len(live)) || live[i].t != t {
		i = 0
		for j := len(live); i < j; {
			m := int(uint(i+j) >> 1)
			if live[m].t.Before(t) {
				i = m + 1
			} else {
				j = m
			}
		}
		if i == len(live) || live[i].t != t {
			q.times.Insert(i, bucket{t: t})
			live = q.times.Live()
		}
		q.last = i
	}
	live[i].link(e)
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

// pop removes and returns the earliest pending event. The queue must not be
// empty.
func (q *eventQueue) pop() *Event {
	if !q.open {
		q.openMin()
	}
	e := q.evs[uint32(q.sorted[q.cur])]
	q.cur++
	q.n--
	if q.cur == len(q.sorted) {
		q.times.Pop()
		q.last-- // every bucket behind moves up one
		q.open, q.cur, q.sorted = false, 0, q.sorted[:0]
	}
	return e
}

// openMin opens the bucket with the earliest timestamp.
func (q *eventQueue) openMin() {
	b := q.times.Front()
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
	q.open, q.cur, q.evs = true, 0, evs

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

// closeOpen turns the open bucket back into a plain one: its undrained events
// return to its list, in sorted order.
func (q *eventQueue) closeOpen() {
	b := q.times.Front()
	for _, k := range q.sorted[q.cur:] {
		b.link(q.evs[uint32(k)])
	}
	q.open, q.cur, q.sorted = false, 0, q.sorted[:0]
}

// each calls fn for every pending event, in no particular order, until fn
// returns false.
func (q *eventQueue) each(fn func(*Event) bool) {
	for i, b := range q.times.Live() {
		if i == 0 && q.open {
			for _, k := range q.sorted[q.cur:] {
				if !fn(q.evs[uint32(k)]) {
					return
				}
			}
			continue
		}
		for e := b.head; e != nil; e = e.next {
			if !fn(e) {
				return
			}
		}
	}
}
