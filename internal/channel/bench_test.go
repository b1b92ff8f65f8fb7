package channel

import (
	"runtime"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/types"
)

// counter is a receiver that only counts deliveries.
type counter struct {
	line          *Line
	flits, credit int
}

func (r *counter) ReceiveFlit(port, vc int, f *types.Flit) { r.flits++ }
func (r *counter) ReceiveCredit(port int, c types.Credit)  { r.credit++ }
func (r *counter) Arrivals() *Line                         { return r.line }

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkLine measures one receiver's arrival line at the shape clos_oq
// was measured to have at seed 1 and tick 600: 143,899 arrivals on 192
// router lines, in 9,664 runs of one tick, so a router's line holds about
// 750 arrivals due at 50 distinct ticks, 15 per tick, flits and credits
// alike on one 50-tick lane. Every tick, 8 flit channels and 7 credit
// channels send one each. ns/entry is one send with its delivery; B/entry
// is the line's live heap per arrival in flight (its storage with the
// slack, and the simulator's events), measured once the line is full.
// The benchmark uses only the channel API, so it measures any line.
func BenchmarkLine(b *testing.B) {
	const latency, flits, credits = 50, 8, 7
	const perTick = flits + credits
	s := sim.NewSimulator(1)
	r := &counter{line: NewLine(s, "rx", perTick)}
	r.line.Bind(r)
	fch := make([]*Channel, flits)
	for i := range fch {
		fch[i] = New(s, "flit", latency, 1)
		fch[i].SetSink(r, i)
	}
	cch := make([]*CreditChannel, credits)
	for i := range cch {
		cch[i] = NewCredit(s, "credit", latency)
		cch[i].SetSink(r, flits+i)
	}
	f := flit()
	left, next := 0, sim.Tick(1)
	var send sim.Handler
	send = sim.HandlerFunc(func(ev *sim.Event) {
		for _, c := range fch {
			c.Inject(f, 0)
		}
		for _, c := range cch {
			c.Inject(types.Credit{VC: 0})
		}
		if left--; left > 0 {
			s.Schedule(send, sim.Time{Tick: ev.Time.Tick + 1}, 0, nil)
		}
	})
	// run sends for n ticks and delivers what is due before the last
	// send's tick ends: latency ticks of sends stay in flight.
	run := func(n int) {
		left = n
		s.Schedule(send, sim.Time{Tick: next}, 0, nil)
		next += sim.Tick(n)
		s.RunUntil(next)
	}
	before := liveHeap()
	run(4 * latency)
	const inFlight = latency * perTick
	perEntry := (float64(liveHeap()) - float64(before)) / inFlight
	ticks := b.N/perTick + 1
	b.ResetTimer()
	run(ticks)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks*perTick), "ns/entry")
	b.ReportMetric(perEntry, "B/entry")
	if got := r.flits + r.credit; got != (4*latency+ticks-latency)*perTick {
		b.Fatalf("%d deliveries, want %d", got, (4*latency+ticks-latency)*perTick)
	}
}
