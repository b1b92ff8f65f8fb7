package channel

import (
	"fmt"
	"math/bits"

	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

// Receiver is the receiving end of flit and credit channels: a router or a
// network interface. It owns the arrival line its inbound channels feed.
type Receiver interface {
	types.FlitSink
	types.CreditSink
	Arrivals() *Line
}

// evArrive is the line's one event type.
const evArrive = 0

// arrival is one flit or credit in flight toward the line's receiver.
type arrival struct {
	f  *types.Flit // nil for a credit
	in int32       // inbound index: the channel's SetSink order on the receiver
	vc int32       // the flit's or the credit's VC
}

// inbound is one channel feeding the line.
type inbound struct {
	port   int32
	lane   uint8
	credit bool // a credit channel; a flit channel otherwise
}

// lane holds the arrivals of every inbound channel of one latency. Sends
// happen at non-decreasing ticks, so a lane is sorted by arrival tick, and
// it keeps its arrivals in runs of one tick each: the arrival tick is
// stored once per run, not once per flit or credit.
type lane struct {
	latency sim.Tick
	runs    sim.FIFO[run]
	q       sim.FIFO[arrival]
}

// run is the next n arrivals of a lane, all due at one tick.
type run struct {
	at sim.Tick
	n  int
}

// push appends an arrival due at tick at and reports whether the lane had
// nothing due at that tick yet.
func (ln *lane) push(at sim.Tick, a arrival) bool {
	ln.q.Push(a)
	if ln.runs.Len() > 0 {
		if r := ln.runs.Back(); r.at == at {
			r.n++
			return false
		} else if r.at > at {
			panic(fmt.Sprintf("channel: arrival due at %d queued behind one due at %d", at, r.at))
		}
	}
	ln.runs.Push(run{at, 1})
	return true
}

// Line is a receiver's arrival line: every flit and credit in flight on the
// channels into one router or interface, with one pending event per
// distinct arrival tick. The event delivers everything due at its tick, in
// the order one event per channel delivered it: by inbound index, FIFO
// within a channel. Inbound index is SetSink order, which is channel
// construction order, since every SetSink follows its channel's New.
//
// A receiver's inbound latencies can differ (a router receives on
// channel.latency and injection.latency), so the line keeps one lane per
// latency and a ring of due bits, one per tick, as its calendar: a tick's
// bit is set while its event is pending. Every pending arrival is due within
// the largest latency, so a ring longer than it never aliases two pending
// ticks.
//
// The line is a handler of its own, with the construction-order key taken
// right after its receiver's. Events at one (tick, epsilon) run in key
// order, so:
//   - the receiver's own epsilon-0 events at a tick (a router's route and
//     datapath lines) still run before that tick's deliveries, as they did
//     when every channel had a later key than every router. A credit
//     updates the congestion sensor that a route completion at the same
//     tick reads;
//   - deliveries to different routers now interleave with other routers'
//     epsilon-0 events instead of following all of them. That is exact,
//     because a delivery touches only its receiver's state and schedules
//     only on its receiver, and a router's epsilon-0 events touch only
//     their router's state; what one sends on a channel arrives a latency
//     later;
//   - interface lines follow their interfaces, which are built in terminal
//     order, so ejections, and the samples they record, keep their order.
type Line struct {
	sim.ComponentBase
	sink  Receiver
	in    []inbound
	lanes []lane
	due   []uint64  // ring of due bits, indexed by tick & mask
	due64 [1]uint64 // due's storage while the ring is 64 ticks long
	mask  sim.Tick  // ring length - 1; the length is a power of two, at least 64
	batch []arrival // delivery scratch
	sp    *telemetry.Spans
}

// NewLine creates an arrival line with room for n inbound channels.
// Receivers create it right after their own component base, which is what
// places its key right after theirs, and bind themselves to it with Bind.
func NewLine(s *sim.Simulator, name string, n int) *Line {
	l := &Line{
		ComponentBase: sim.NewComponentBase(s, name),
		in:            make([]inbound, 0, n),
		lanes:         make([]lane, 0, 2),
		mask:          63,
		sp:            telemetry.SpansFor(s),
	}
	l.due = l.due64[:]
	return l
}

// Bind sets the receiver the line delivers to.
func (l *Line) Bind(r Receiver) { l.sink = r }

// register adds an inbound channel of the given latency delivering on port
// and returns its inbound index and lane.
func (l *Line) register(port int, latency sim.Tick, credit bool) (int32, int) {
	if l.sink == nil {
		l.Panicf("channel connected to an unbound arrival line")
	}
	ln := 0
	for ln < len(l.lanes) && l.lanes[ln].latency != latency {
		ln++
	}
	if ln == len(l.lanes) {
		for i := range l.lanes {
			if l.lanes[i].q.Len() > 0 {
				l.Panicf("channel connected while arrivals are in flight")
			}
		}
		l.lanes = append(l.lanes, lane{latency: latency})
		// A ring of at least latency+1 ticks: the ticks pending at once lie
		// in (now, now+latency], plus now itself until its event runs.
		n := sim.Tick(1) << bits.Len64(uint64(latency))
		if n > l.mask+1 {
			l.mask = n - 1
			l.due = make([]uint64, (n+63)/64)
		}
	}
	l.in = append(l.in, inbound{port: int32(port), lane: uint8(ln), credit: credit})
	return int32(len(l.in) - 1), ln
}

// add puts an arrival due at tick at on lane ln and schedules the line's
// event for the tick unless one is pending.
func (l *Line) add(ln int, at sim.Tick, a arrival) {
	if !l.lanes[ln].push(at, a) {
		return
	}
	w, bit := (at&l.mask)>>6, uint64(1)<<(at&63)
	if l.due[w]&bit == 0 {
		l.due[w] |= bit
		l.Sim().Schedule(l, sim.Time{Tick: at}, evArrive, nil)
	}
}

// ProcessEvent delivers every arrival due now, by inbound index and FIFO
// within a channel.
func (l *Line) ProcessEvent(ev *sim.Event) {
	now := ev.Time.Tick
	l.due[(now&l.mask)>>6] &^= uint64(1) << (now & 63)
	batch := l.batch[:0]
	for i := range l.lanes {
		ln := &l.lanes[i]
		if ln.runs.Len() == 0 {
			continue
		}
		if at := ln.runs.Front().at; at != now {
			if at < now {
				l.late(at)
			}
			continue
		}
		for n := ln.runs.Pop().n; n > 0; n-- {
			batch = append(batch, ln.q.Pop())
		}
	}
	if len(batch) == 0 {
		l.idle()
	}
	// Insertion sort, stable: a lane is in send order and a batch is a few
	// arrivals, mostly in order already.
	for i := 1; i < len(batch); i++ {
		a := batch[i]
		j := i
		for j > 0 && batch[j-1].in > a.in {
			batch[j] = batch[j-1]
			j--
		}
		batch[j] = a
	}
	for i := range batch {
		a := &batch[i]
		p := &l.in[a.in]
		if a.f == nil {
			l.sink.ReceiveCredit(int(p.port), types.Credit{VC: int(a.vc)})
			continue
		}
		if l.sp.Tracked(a.f) {
			// Channel exit is the uniform hop boundary: serialization wait
			// plus propagation is charged to the wire, and the span moves to
			// the next hop. This fires for injection, router-router and
			// ejection links alike, so every hop on the path ends with
			// exactly one wire step.
			l.sp.Step(now, a.f, telemetry.SpanWire)
		}
		l.sink.ReceiveFlit(int(p.port), int(a.vc), a.f)
		a.f = nil
	}
	l.batch = batch[:0]
}

//go:noinline
func (l *Line) late(at sim.Tick) {
	l.Panicf("arrival due at %d delivered late", at)
}

//go:noinline
func (l *Line) idle() {
	l.Panicf("arrival event with nothing due")
}

// pending returns the number of arrivals in flight from inbound channel in.
func (l *Line) pending(in int32) int {
	n := 0
	for _, a := range l.lanes[l.in[in].lane].q.Live() {
		if a.in == in {
			n++
		}
	}
	return n
}

// ticks returns the distinct ticks the line holds arrivals for, unordered.
func (l *Line) ticks() []sim.Tick {
	var ts []sim.Tick
	for i := range l.lanes {
		for _, r := range l.lanes[i].runs.Live() {
			seen := false
			for _, t := range ts {
				seen = seen || t == r.at
			}
			if !seen {
				ts = append(ts, r.at)
			}
		}
	}
	return ts
}

// CheckPending returns an error unless the line holds exactly one pending
// event per distinct arrival tick, none when it is empty, and its due bits
// mark exactly those ticks. It walks the simulator's event queue, so it is
// for tests between run slices.
func (l *Line) CheckPending() error {
	ticks := l.ticks()
	if n := l.Sim().PendingFor(l, evArrive); n != len(ticks) {
		return fmt.Errorf("%s: %d pending arrival events for %d distinct arrival ticks", l.Name(), n, len(ticks))
	}
	set := 0
	for _, w := range l.due {
		set += bits.OnesCount64(w)
	}
	for _, t := range ticks {
		if l.due[(t&l.mask)>>6]&(uint64(1)<<(t&63)) == 0 {
			return fmt.Errorf("%s: arrival tick %d has no due bit", l.Name(), t)
		}
	}
	if set != len(ticks) {
		return fmt.Errorf("%s: %d due bits for %d distinct arrival ticks", l.Name(), set, len(ticks))
	}
	return nil
}
