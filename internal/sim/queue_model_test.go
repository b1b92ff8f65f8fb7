package sim

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// The event-order model drives a Simulator and a reference side by side
// through one script of operations and requires them to agree after every
// step. The reference keeps its pending events in a plain slice and always
// executes the least by (tick, eps, owner, oseq): the order the queue promises
// whatever its data structure, so the test holds for any implementation.
//
// A script is a byte string (the property test draws it from a PRNG, the fuzz
// target receives it), read as a sequence of operations on the paused
// simulator: Schedule, ScheduleDaemon, a same-timestamp burst, RunUntil,
// Run, ExportEvents, and ResetQueue followed by re-injection in queue order.
// InjectEvent must refuse a record out of queue order: the re-injection may
// swap two neighbours, and another operation re-injects a pending event.
// Executing an event may schedule children and may call Stop, as decided by
// react from the event's Type alone, so the simulator and the reference grow
// the same event tree.

// modelHandlers is the number of handlers. Their owner keys pass 255, so
// same-timestamp bursts make the sort look past the owners' low byte
// (TestRadixSortOwnersAllBytes covers the other two).
const modelHandlers = 600

// modelMaxPending is the pending-event count past which a script's adding
// operations turn into RunUntil.
const modelMaxPending = 2000

type modelEvent struct {
	t      Time
	owner  uint32
	oseq   uint64
	typ    int
	daemon bool
	h      int // handler index
}

func (a modelEvent) less(b modelEvent) bool {
	return eventKey{a.t, a.owner, a.oseq}.less(eventKey{b.t, b.owner, b.oseq})
}

// child is one Schedule call an executing event makes.
type child struct {
	h      int
	t      Time
	typ    int
	daemon bool
}

// mix is splitmix64's finalizer: the script's source of derived randomness.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// react is what executing an event of the given type at time now does: the
// children it schedules, all strictly after now, and whether it calls Stop.
// The type's bits 16-23 are the event's remaining depth, so every tree ends.
func react(typ int, now Time) (kids []child, stop bool) {
	depth := typ >> 16 & 0xff
	r := mix(uint64(typ)<<20 ^ uint64(now.Tick))
	stop = r%61 == 0
	if depth == 0 {
		return nil, stop
	}
	for i := uint64(0); i < r>>8%3; i++ {
		r = mix(r)
		k := child{
			h:      int(r % modelHandlers),
			typ:    (depth-1)<<16 | int(r>>16&0xffff),
			daemon: r>>40%11 == 0,
		}
		dt := Tick(r >> 44 % 18)
		switch {
		case dt == 0 && now.Eps < math.MaxUint32-8:
			k.t = Time{now.Tick, now.Eps + 1 + Epsilon(r>>52%3)}
		case r>>56%7 == 0:
			k.t = Time{now.Tick + dt + 1, math.MaxUint32 - Epsilon(r>>60%4)}
		default:
			k.t = Time{now.Tick + dt + 1, Epsilon(r >> 60 % 3)}
		}
		kids = append(kids, k)
	}
	return kids, stop
}

type modelComp struct {
	ComponentBase
	m *model
	i int
}

func (c *modelComp) ProcessEvent(ev *Event) { c.m.execute(c.i, ev) }

type model struct {
	t        *testing.T
	s        *Simulator
	handlers [modelHandlers]Handler

	// The reference: pending events, the schedule counter of every handler,
	// the clock, and the Stop latch.
	pending []modelEvent
	seq     [modelHandlers]uint64
	now     Time
	stopped bool

	got, want []modelEvent // execution logs: simulator, reference
}

func newModel(t *testing.T) *model {
	m := &model{t: t, s: NewSimulator(1)}
	for i := 0; i < modelHandlers; i++ {
		m.handlers[i] = &modelComp{ComponentBase: NewComponentBase(m.s, "c"), m: m, i: i}
	}
	return m
}

func (m *model) owner(h int) uint32 { return uint32(h + 1) }

// call makes the Schedule or ScheduleDaemon call k describes.
func (m *model) call(k child) {
	if k.daemon {
		m.s.ScheduleDaemon(m.handlers[k.h], k.t, k.typ, nil)
	} else {
		m.s.Schedule(m.handlers[k.h], k.t, k.typ, nil)
	}
}

// schedule makes one call on the paused simulator and mirrors it.
func (m *model) schedule(k child) {
	m.call(k)
	m.mirror(k)
}

// reinject empties the queue and injects the reference's pending events in
// queue order, except that when swap >= 0 the events at swap and swap+1 go
// in the other way round. InjectEvent must then refuse the one at swap, and
// the reference drops it.
func (m *model) reinject(swap int) {
	m.s.ResetQueue()
	if m.s.Pending() != 0 || m.s.PendingNonDaemon() != 0 {
		m.t.Fatalf("after ResetQueue: Pending() = %d, PendingNonDaemon() = %d", m.s.Pending(), m.s.PendingNonDaemon())
	}
	m.sortPending()
	order := make([]int, len(m.pending))
	for i := range order {
		order[i] = i
	}
	if swap >= 0 {
		order[swap], order[swap+1] = swap+1, swap
	}
	for _, i := range order {
		e := m.pending[i]
		err := m.s.InjectEvent(m.handlers[e.h], m.record(e))
		if refuse := i == swap; refuse != (err != nil) {
			m.t.Fatalf("InjectEvent(%+v): want refused %v, err = %v", e, refuse, err)
		}
	}
	if swap >= 0 {
		m.pending = slices.Delete(m.pending, swap, swap+1)
	}
}

// sortPending puts the reference's pending events in queue order.
func (m *model) sortPending() {
	slices.SortFunc(m.pending, func(a, b modelEvent) int {
		if a.less(b) {
			return -1
		}
		return 1
	})
}

func (m *model) mirror(k child) {
	m.seq[k.h]++
	m.pending = append(m.pending, modelEvent{t: k.t, owner: m.owner(k.h), oseq: m.seq[k.h], typ: k.typ, daemon: k.daemon, h: k.h})
}

// execute is every handler's ProcessEvent: log the event, then do what react
// says. The reference's half of each Schedule happens in run, when it executes
// its own copy of the event.
func (m *model) execute(h int, ev *Event) {
	m.got = append(m.got, modelEvent{t: ev.Time, owner: ev.owner, oseq: ev.oseq, typ: ev.Type, h: h})
	kids, stop := react(ev.Type, ev.Time)
	for _, k := range kids {
		m.call(k)
	}
	if stop {
		m.s.Stop()
	}
}

// run executes RunUntil(limit), or Run when all is set, on both sides.
func (m *model) run(limit Tick, all bool) {
	// Stop is sticky, so a stopped simulator would execute nothing more. The
	// model resumes it by clearing the latch, because the state a Stop leaves
	// behind — a half-drained timestamp, since pushed into — is the one this
	// test most wants to see drained in the right order.
	m.s.stopped, m.stopped = false, false
	var ran uint64
	if all {
		ran = m.s.Run()
	} else {
		ran = m.s.RunUntil(limit)
	}
	var refRan uint64
	for len(m.pending) > 0 && !m.stopped {
		first := 0
		for i := range m.pending {
			if m.pending[i].less(m.pending[first]) {
				first = i
			}
		}
		e := m.pending[first]
		if !all && e.t.Tick >= limit {
			break
		}
		m.pending = slices.Delete(m.pending, first, first+1)
		m.now = e.t
		if !e.daemon {
			refRan++
		}
		e.daemon = false // the execution log does not carry it
		m.want = append(m.want, e)
		kids, stop := react(e.typ, e.t)
		for _, k := range kids {
			m.mirror(k)
		}
		m.stopped = stop
	}
	if ran != refRan {
		m.t.Fatalf("run(%d, %v) executed %d non-daemon events, reference %d", limit, all, ran, refRan)
	}
	if m.s.Stopped() != m.stopped {
		m.t.Fatalf("Stopped() = %v, reference %v", m.s.Stopped(), m.stopped)
	}
}

func (m *model) record(e modelEvent) EventRecord {
	return EventRecord{Tick: e.t.Tick, Eps: e.t.Eps, Owner: e.owner, Oseq: e.oseq, Type: e.typ, Daemon: e.daemon}
}

// check compares everything observable from outside the queue.
func (m *model) check(op string) {
	t := m.t
	for i := 0; i < len(m.got) && i < len(m.want); i++ {
		if m.got[i] != m.want[i] {
			t.Fatalf("after %s: execution %d is %+v, reference %+v", op, i, m.got[i], m.want[i])
		}
	}
	if len(m.got) != len(m.want) {
		t.Fatalf("after %s: executed %d events, reference %d", op, len(m.got), len(m.want))
	}
	m.got, m.want = m.got[:0], m.want[:0]
	if m.s.Now() != m.now {
		t.Fatalf("after %s: Now() = %v, reference %v", op, m.s.Now(), m.now)
	}
	if m.s.Pending() != len(m.pending) {
		t.Fatalf("after %s: Pending() = %d, reference %d", op, m.s.Pending(), len(m.pending))
	}
	nonDaemon := 0
	for _, e := range m.pending {
		if !e.daemon {
			nonDaemon++
		}
	}
	if m.s.PendingNonDaemon() != nonDaemon {
		t.Fatalf("after %s: PendingNonDaemon() = %d, reference %d", op, m.s.PendingNonDaemon(), nonDaemon)
	}
	recs, err := m.s.ExportEvents()
	if err != nil {
		t.Fatalf("after %s: ExportEvents: %v", op, err)
	}
	SortEventRecords(recs)
	m.sortPending()
	for i, e := range m.pending {
		if i >= len(recs) || recs[i] != m.record(e) {
			t.Fatalf("after %s: exported record %d of %d differs from reference %+v", op, i, len(recs), e)
		}
	}
}

// runScript interprets data as operations until it runs out.
func runScript(t *testing.T, data []byte) {
	m := newModel(t)
	next := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return uint64(b)
	}
	// at picks a time not before now: the paused simulator accepts the current
	// timestamp too, which after a Stop is a half-drained one.
	at := func(b uint64) Time {
		dt := Tick(b % 20)
		switch {
		case dt == 0:
			return Time{m.now.Tick, m.now.Eps + Epsilon(b>>5%2)*Epsilon(min(2, math.MaxUint32-m.now.Eps))}
		case b>>5 == 7:
			return Time{m.now.Tick + dt, math.MaxUint32 - Epsilon(b&1)}
		}
		return Time{m.now.Tick + dt, Epsilon(b >> 5 % 3)}
	}
	for len(data) > 0 {
		op := next()
		a, b := next(), next()
		typ := int(a%5)<<16 | int(b)<<8 | int(a)
		h := int(mix(a<<8|b) % modelHandlers)
		name := ""
		if len(m.pending) > modelMaxPending && op%10 < 5 {
			op = 5 // the reference executes in quadratic time: drain before adding more
		}
		switch op % 10 {
		case 0, 1, 9:
			name = "Schedule"
			m.schedule(child{h: h, t: at(b), typ: typ})
		case 2:
			name = "ScheduleDaemon"
			k := child{h: h, t: at(b), typ: typ, daemon: true}
			if a%2 == 0 {
				k.t.Tick += 1 << 40 // a far-future observer
			}
			m.schedule(k)
		case 3:
			name = "burst"
			// Up to 127 events at one timestamp, so the owners vary in one
			// or two bytes.
			k := child{t: at(b), typ: typ}
			for i := uint64(0); i < a%128; i++ {
				k.h = int(mix(a<<16|b<<8|i) % modelHandlers)
				m.schedule(k)
			}
		case 4:
			name = "InjectEvent of a pending event"
			// The queue holds the event already: if it holds nothing but
			// injected events the record does not sort after the last of
			// them, and otherwise the queue takes no injection at all.
			if len(m.pending) > 0 {
				e := m.pending[a%uint64(len(m.pending))]
				if err := m.s.InjectEvent(m.handlers[e.h], m.record(e)); err == nil {
					t.Fatalf("InjectEvent(%+v) of a pending event accepted", e)
				}
			}
		case 5, 6:
			name = "RunUntil"
			m.run(m.now.Tick+1+Tick(a%24), false)
		case 7:
			name = "Run"
			if a%4 == 0 { // a full drain empties the script's state; keep it rare
				m.run(0, true)
			}
		case 8:
			name = "ResetQueue+InjectEvent"
			swap := -1
			if a%2 == 1 && len(m.pending) >= 2 {
				swap = int(b % uint64(len(m.pending)-1))
			}
			m.reinject(swap)
		}
		m.check(name)
	}
	m.run(0, true)
	m.check("final Run")
}

func TestEventOrderModel(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 30
	}
	for seed := uint64(0); seed < uint64(n); seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		data := make([]byte, 30+rng.IntN(600))
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		runScript(t, data)
	}
}

// FuzzEventOrder feeds runScript arbitrary scripts. The committed corpus under
// testdata/fuzz/FuzzEventOrder holds one script per hazard named in its file
// name; `go test` replays it on every run.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{3, 100, 0, 5, 0, 0, 4, 9, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip("script longer than any hazard needs")
		}
		runScript(t, data)
	})
}

// TestEventSize pins the memory cost of the queue's intrusive bucket links:
// Event must stay in the 80-byte size class it had before it carried one.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 80 {
		t.Fatalf("Event is %d bytes, want 80", got)
	}
}

// TestRadixSortOwnersAllBytes drives the radix passes over owner keys that
// differ in every byte, and in none, against a plain sort. A key's low half
// is its arrival index, so a plain sort is the stable (owner, arrival) order.
func TestRadixSortOwnersAllBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, owners := range [][]uint32{
		{1, 2, 0xff, 0x100, 0xffff, 0x10000, 0xffffff, 0x1000000, 0xfffffffe, 0xffffffff},
		{0x01020304, 0x01020305, 0x01020304}, // differing in the low byte only
		{0x80000000, 0x00000000},             // the high byte only
		{42},
	} {
		for _, n := range []int{insertionSortMax + 1, 200} {
			keys := make([]uint64, n)
			or, and := uint32(0), ^uint32(0)
			for i := range keys {
				o := owners[rng.IntN(len(owners))]
				keys[i] = uint64(o)<<32 | uint64(i)
				or |= o
				and &= o
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			got, _ := radixSortOwners(keys, nil, or&^and)
			if !slices.Equal(got, want) {
				t.Fatalf("owners %#x, %d keys: radix order differs from sorted order", owners, n)
			}
		}
	}
}
