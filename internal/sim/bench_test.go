package sim

import "testing"

// BenchmarkQueueChurn measures schedule+execute throughput with a realistic
// pending-set size (the event queue is the simulator's hottest structure).
func BenchmarkQueueChurn(b *testing.B) {
	s := NewSimulator(1)
	var h Handler
	h = HandlerFunc(func(ev *Event) {
		s.Schedule(h, s.Now().Plus(1+Tick(ev.Type%101)), ev.Type, nil)
	})
	const pending = 4096
	for i := 0; i < pending; i++ {
		s.Schedule(h, Time{Tick: Tick(i%101) + 1}, i, nil)
	}
	b.ResetTimer()
	executed := uint64(0)
	for executed < uint64(b.N) {
		executed += s.RunUntil(s.Now().Tick + 101)
	}
}

// BenchmarkQueueShapes measures schedule+execute cost per event at the queue
// shapes the benchmark workloads were measured to have, at seed 1, averaged
// over executed events: pending events / events per executed timestamp /
// pending timestamps, fb_ioq 847/26/106, torus_iq 2,157/515/53 and clos_oq
// 9,126/408/50. A shape keeps that many timestamps pending with one far
// handler per tick, which reschedules itself a full span of timestamps ahead
// and so creates the newest one; the rest of its events are dense handlers,
// perTimestamp-1 on each of the few ticks that the pending count allows
// (rounded, so pending is within 2.5% of the measured count), each
// rescheduling itself that many ticks ahead. Every handler is its own owner,
// and the shape holds for the whole run.
//
// The real workloads also create timestamps ahead of pending ones: 3.9% of
// fb_ioq's pushes create a timestamp with 62 pending after it on average
// (torus_iq 0.19% / 29, clos_oq 0.25% / 31). mid_insert prices that move: 80
// ticks pending, plus one handler per tick that reschedules itself 20 ticks
// ahead at epsilon 1, creating a timestamp with 60 ticks pending after it,
// and from there back onto the ticks; about 100 timestamps pending, 3.8% of
// pushes inserting. all_distinct is the shape that defeats timestamp
// bucketing: every pending event at a timestamp of its own, as
// BenchmarkSchedule builds. The benchmark goes through Schedule and RunUntil
// only, so the same file measures any queue implementation; the steady state
// must not allocate.
func BenchmarkQueueShapes(b *testing.B) {
	for _, shape := range []struct {
		name                              string
		pending, perTimestamp, timestamps int
		insertAhead                       Tick // 0: no inserting handlers
	}{
		{"fb_ioq", 847, 26, 106, 0},
		{"torus_iq", 2157, 515, 53, 0},
		{"clos_oq", 9126, 408, 50, 0},
		{"mid_insert", 2000, 24, 80, 20},
		{"all_distinct", 4096, 1, 4096, 0},
	} {
		b.Run(shape.name, func(b *testing.B) {
			s := NewSimulator(1)
			every := func(first Time, period Tick) {
				var h Handler
				h = HandlerFunc(func(ev *Event) {
					s.Schedule(h, ev.Time.Plus(period), 0, nil)
				})
				s.Schedule(h, first, 0, nil)
			}
			span := Tick(shape.timestamps)
			dense := shape.pending - shape.timestamps
			if shape.insertAhead > 0 {
				dense -= shape.timestamps
				for i := Tick(1); i <= span; i++ {
					var h Handler
					h = HandlerFunc(func(ev *Event) {
						if ev.Time.Eps == 0 {
							s.Schedule(h, Time{ev.Time.Tick + shape.insertAhead, 1}, 0, nil)
						} else {
							s.Schedule(h, Time{ev.Time.Tick + span - shape.insertAhead, 0}, 0, nil)
						}
					})
					s.Schedule(h, Time{Tick: i}, 0, nil)
				}
			}
			for i := Tick(1); i <= span; i++ {
				every(Time{Tick: i}, span)
			}
			if perTick := shape.perTimestamp - 1; perTick > 0 {
				rotation := max(1, (dense+perTick/2)/perTick)
				for i := 0; i < rotation*perTick; i++ {
					every(Time{Tick: 1 + Tick(i/perTick)}, Tick(rotation))
				}
			}
			s.RunUntil(1 + 4*span) // warm the event free list and the queue's arrays
			b.ReportAllocs()
			b.ResetTimer()
			events := uint64(0)
			for events < uint64(b.N) {
				events += s.RunUntil(s.Now().Tick + 1 + span)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}

// BenchmarkSchedule measures raw push cost into a deep queue.
func BenchmarkSchedule(b *testing.B) {
	s := NewSimulator(1)
	h := HandlerFunc(func(ev *Event) {})
	for i := 0; i < b.N; i++ {
		s.Schedule(h, Time{Tick: Tick(i) + 1}, 0, nil)
	}
}
