package apps

import (
	"fmt"
	"sort"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/workload"
)

// injectLine is an application's injection line: the entries due to run,
// grouped by tick, each tick's in the order they were scheduled. An entry
// is a terminal's next injection (Blast adds its warm-up timer), and each
// has at most one pending tick. The application holds one evInject per
// distinct due tick, scheduled when the tick's first entry joins, and the
// event runs every entry due at its tick. One event per entry would have run
// those entries back to back, in schedule order (their owner is the
// application, so they were ordered by its schedule sequence), which is the
// order the line keeps; so the application's PRNG is drawn in the same
// order.
//
// Ticks hash into a ring of lineSlots slots. A slot lists the distinct
// pending ticks that share it, usually one, and links its entries in
// schedule order through next. Every buffer is sized at construction, so
// the line does not allocate while it runs.
type injectLine struct {
	at    []sim.Tick // per entry: its pending tick
	next  []int      // per entry: the next entry of its slot, -1 at the end
	slots [lineSlots]lineSlot
	batch []int // take's result, reused
}

// lineSlots is the ring length: a few times the span of ticks a terminal's
// next injection usually falls in at the loads the workloads run.
const lineSlots = 64

type lineSlot struct {
	head, tail int        // the slot's entries, linked through next; -1 when empty
	ticks      []sim.Tick // the distinct pending ticks
}

// newInjectLine returns a line for entries 0..n-1.
func newInjectLine(n int) injectLine {
	l := injectLine{at: make([]sim.Tick, n), next: make([]int, n), batch: make([]int, 0, n)}
	ticks := make([]sim.Tick, 2*lineSlots)
	for i := range l.slots {
		l.slots[i] = lineSlot{head: -1, tail: -1, ticks: ticks[2*i : 2*i : 2*i+2]}
	}
	return l
}

// add queues entry e at tick at and, when the tick is new, schedules h's
// evInject for it.
func (l *injectLine) add(s *sim.Simulator, h sim.Handler, at sim.Tick, e int) {
	if l.push(at, e) {
		s.Schedule(h, sim.Time{Tick: at}, evInject, nil)
	}
}

// push queues entry e at tick at and reports whether the tick is new.
func (l *injectLine) push(at sim.Tick, e int) bool {
	sl := &l.slots[at%lineSlots]
	l.at[e], l.next[e] = at, -1
	if sl.head < 0 {
		sl.head = e
	} else {
		l.next[sl.tail] = e
	}
	sl.tail = e
	for _, t := range sl.ticks {
		if t == at {
			return false
		}
	}
	sl.ticks = append(sl.ticks, at)
	return true
}

// take removes tick now's entries and returns them in schedule order. The
// result is valid until the next take.
func (l *injectLine) take(now sim.Tick) []int {
	sl := &l.slots[now%lineSlots]
	i := 0
	for i < len(sl.ticks) && sl.ticks[i] != now {
		i++
	}
	if i == len(sl.ticks) {
		panic(fmt.Sprintf("apps: injection event at %d with nothing due", now))
	}
	last := len(sl.ticks) - 1
	sl.ticks[i] = sl.ticks[last]
	sl.ticks = sl.ticks[:last]
	batch, prev := l.batch[:0], -1
	for e := sl.head; e >= 0; {
		nx := l.next[e]
		if l.at[e] != now {
			prev = e
		} else {
			batch = append(batch, e)
			if prev < 0 {
				sl.head = nx
			} else {
				l.next[prev] = nx
			}
			if sl.tail == e {
				sl.tail = prev
			}
		}
		e = nx
	}
	l.batch = batch
	return batch
}

// ticks returns the line's pending ticks, in order.
func (l *injectLine) ticks() []sim.Tick {
	var ts []sim.Tick
	for i := range l.slots {
		ts = append(ts, l.slots[i].ticks...)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// due returns tick at's entries, in schedule order.
func (l *injectLine) due(at sim.Tick) []int {
	var es []int
	for e := l.slots[at%lineSlots].head; e >= 0; e = l.next[e] {
		if l.at[e] == at {
			es = append(es, e)
		}
	}
	return es
}

// state codes the line: its pending ticks in order, each with its entries
// in schedule order, so the bytes do not depend on how the ticks share
// slots. A loaded line has no events of its own: the snapshot's event queue
// holds them.
func (l *injectLine) state(c *snapshot.Codec, what string) {
	ts := l.ticks()
	n := c.Len(len(ts))
	if c.Loading() {
		for i := range l.slots {
			l.slots[i].head, l.slots[i].tail, l.slots[i].ticks = -1, -1, l.slots[i].ticks[:0]
		}
		ts = make([]sim.Tick, n)
	}
	queued := make([]bool, len(l.at))
	for i := range ts {
		snapshot.Uint(c, &ts[i])
		if c.Loading() && c.Err() == nil && i > 0 && ts[i] <= ts[i-1] {
			c.Failf("%s tick %d is not after the one before it", what, i)
		}
		var es []int
		if !c.Loading() {
			es = l.due(ts[i])
		}
		snapshot.Slice(c, &es)
		for j := range es {
			c.Index(&es[j], len(l.at), what)
		}
		if !c.Loading() || c.Err() != nil {
			continue
		}
		if len(es) == 0 {
			c.Failf("%s tick %d has nothing due", what, ts[i])
			return
		}
		for _, e := range es {
			if queued[e] {
				c.Failf("%s entry %d is queued twice", what, e)
				return
			}
			queued[e] = true
			l.push(ts[i], e)
		}
	}
}

// CheckPending returns an error unless app, a Blast or a Pulse, holds
// exactly one pending evInject per distinct tick of its injection line. It
// walks the simulator's event queue, so it is for tests between run slices.
func CheckPending(app workload.Application) error {
	var (
		h    sim.Component
		line *injectLine
	)
	switch a := app.(type) {
	case *Blast:
		h, line = a, &a.line
	case *Pulse:
		h, line = a, &a.line
	default:
		return nil
	}
	if n, want := h.Sim().PendingFor(h, evInject), len(line.ticks()); n != want {
		return fmt.Errorf("%s: %d pending injection events for %d distinct due ticks", h.Name(), n, want)
	}
	return nil
}
