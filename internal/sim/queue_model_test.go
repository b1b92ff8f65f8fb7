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
// simulator: Schedule, ScheduleDaemon, a same-timestamp burst, InjectEvent
// with an out-of-order oseq, RunUntil, Run, ExportEvents, and ResetQueue
// followed by re-injection in shuffled order. Executing an event may schedule
// children and may call Stop, as decided by react from the event's Type alone,
// so the simulator and the reference grow the same event tree.

// modelHandlers is the number of keyed handlers. Their owner keys pass 255,
// so same-timestamp bursts make the sort look past the owners' low byte.
const modelHandlers = 600

// modelMaxPending is the pending-event count past which a script's adding
// operations turn into RunUntil.
const modelMaxPending = 2000

// foreign is the handler index of the one handler without a construction-order
// key: the simulator files its events under owner ^uint32(0).
const foreign = modelHandlers

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
			h:      int(r % (modelHandlers + 1)),
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

type modelForeign struct{ m *model }

func (f *modelForeign) ProcessEvent(ev *Event) { f.m.execute(foreign, ev) }

type model struct {
	t        *testing.T
	s        *Simulator
	handlers [modelHandlers + 1]Handler

	// The reference: pending events, the schedule counter of every handler
	// (the foreign slot mirrors the simulator's global fallback sequence), the
	// clock, and the Stop latch.
	pending []modelEvent
	seq     [modelHandlers + 1]uint64
	now     Time
	stopped bool
	injects uint64 // InjectEvent oseqs count down from 1<<40: unique, never in arrival order

	got, want []modelEvent // execution logs: simulator, reference
}

func newModel(t *testing.T) *model {
	m := &model{t: t, s: NewSimulator(1)}
	for i := 0; i < modelHandlers; i++ {
		m.handlers[i] = &modelComp{ComponentBase: NewComponentBase(m.s, "c"), m: m, i: i}
	}
	m.handlers[foreign] = &modelForeign{m}
	return m
}

func (m *model) owner(h int) uint32 {
	if h == foreign {
		return ^uint32(0)
	}
	return uint32(h + 1)
}

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

// reinject empties the queue and injects the reference's pending events, in
// the order the reference holds them.
func (m *model) reinject() {
	m.s.ResetQueue()
	if m.s.Pending() != 0 || m.s.PendingNonDaemon() != 0 {
		m.t.Fatalf("after ResetQueue: Pending() = %d, PendingNonDaemon() = %d", m.s.Pending(), m.s.PendingNonDaemon())
	}
	for _, e := range m.pending {
		m.s.InjectEvent(m.handlers[e.h], m.record(e))
	}
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
	nonDaemon, foreignPending := 0, false
	for _, e := range m.pending {
		if !e.daemon {
			nonDaemon++
		}
		foreignPending = foreignPending || e.h == foreign
	}
	if m.s.PendingNonDaemon() != nonDaemon {
		t.Fatalf("after %s: PendingNonDaemon() = %d, reference %d", op, m.s.PendingNonDaemon(), nonDaemon)
	}
	recs, err := m.s.ExportEvents()
	if foreignPending {
		if err == nil {
			t.Fatalf("after %s: ExportEvents accepted a foreign handler's event", op)
		}
		return
	}
	if err != nil {
		t.Fatalf("after %s: ExportEvents: %v", op, err)
	}
	SortEventRecords(recs)
	slices.SortFunc(m.pending, func(a, b modelEvent) int {
		if a.less(b) {
			return -1
		}
		return 1
	})
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
		h := int(mix(a<<8|b) % (modelHandlers + 1))
		name := ""
		if len(m.pending) > modelMaxPending && op%10 < 5 {
			op = 5 // the reference executes in quadratic time: drain before adding more
		}
		switch op % 10 {
		case 0, 1:
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
			// Up to 127 events at one timestamp; keyed handlers only half the
			// time, so the owners vary in one or two bytes, or in all four.
			k := child{t: at(b), typ: typ}
			for i := uint64(0); i < a%128; i++ {
				r := mix(a<<16 | b<<8 | i)
				k.h = int(r % (modelHandlers + op>>4%2))
				m.schedule(k)
			}
		case 4:
			name = "InjectEvent"
			m.injects++
			e := modelEvent{t: at(b), owner: m.owner(h), oseq: 1<<40 - m.injects, typ: typ, daemon: a%7 == 0, h: h}
			m.s.InjectEvent(m.handlers[h], m.record(e))
			m.pending = append(m.pending, e)
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
			rng := rand.New(rand.NewPCG(a, b))
			rng.Shuffle(len(m.pending), func(i, j int) { m.pending[i], m.pending[j] = m.pending[j], m.pending[i] })
			m.reinject()
		case 9:
			name = "drop foreign events"
			// ExportEvents refuses foreign handlers' events, so scripts that
			// schedule one would never compare exports again without this.
			m.pending = slices.DeleteFunc(m.pending, func(e modelEvent) bool { return e.h == foreign })
			m.reinject()
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
