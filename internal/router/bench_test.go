package router

import (
	"runtime"
	"testing"

	"supersim/internal/sim"
)

// evBenchSend is the delay-line benchmark's send event, beside the line's
// own evTransferArrive.
const evBenchSend = 99

// lineBench is a router base whose only traffic is its datapath delay line:
// it sends perTick flits down the line every tick and lands them.
type lineBench struct {
	base
	latency sim.Tick
	perTick int
	left    int
	landed  int
	flight  flight
}

func (lb *lineBench) ProcessEvent(ev *sim.Event) {
	if ev.Type != evBenchSend {
		for _, ok := lb.dl.land(&lb.base); ok; _, ok = lb.dl.land(&lb.base) {
			lb.landed++
		}
		return
	}
	for i := 0; i < lb.perTick; i++ {
		lb.dl.add(&lb.base, ev.Time.Tick+lb.latency, lb.flight)
	}
	if lb.left--; lb.left > 0 {
		lb.Sim().Schedule(lb, sim.Time{Tick: ev.Time.Tick + 1}, evBenchSend, nil)
	}
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkDelayLine measures a router's internal datapath delay line at
// the shape clos_oq was measured to have at seed 1 and tick 600: 89,505
// flits crossing 192 OQ routers' 50-tick queue-to-queue datapaths, due at
// 9,600 distinct ticks, so a router's line holds about 466 flits due at 50
// ticks, 9 per tick. Every tick 9 flits start. ns/entry is one add with its
// landing; B/entry is the line's live heap per flit in flight (its storage
// with the slack, and the one pending event), measured once the line is
// full. The benchmark uses only the line's add and land, so it measures any
// delay line.
func BenchmarkDelayLine(b *testing.B) {
	const latency, perTick = 50, 9
	s := sim.NewSimulator(1)
	lb := &lineBench{latency: latency, perTick: perTick}
	lb.base = base{ComponentBase: sim.NewComponentBase(s, "router"), self: lb}
	lb.dl.ev = evTransferArrive
	lb.flight = flight{flitOf(1, 0), 1, 0}
	next := sim.Tick(1)
	// run sends for n ticks and lands what is due before the last send's
	// tick ends: latency ticks of sends stay in flight.
	run := func(n int) {
		lb.left = n
		s.Schedule(lb, sim.Time{Tick: next}, evBenchSend, nil)
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
	if want := (4*latency + ticks - latency) * perTick; lb.landed != want {
		b.Fatalf("%d flits landed, want %d", lb.landed, want)
	}
}
