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
// shapes the benchmark workloads were measured to have (mean pending events /
// events per timestamp, seed 1, once each receiver batches its arrivals and
// each application its injections: fb_ioq 865/26, torus_iq 1,975/515,
// clos_oq 8,658/408) and at the shape that defeats timestamp bucketing: every
// pending event at a timestamp of its own, as BenchmarkSchedule builds. Every
// handler is its own owner and reschedules itself one full rotation of the
// pending timestamps ahead, so the shape holds for the whole run. It goes
// through Schedule and RunUntil only, so the same file measures any queue
// implementation; the steady state must not allocate.
func BenchmarkQueueShapes(b *testing.B) {
	for _, shape := range []struct {
		name                  string
		pending, perTimestamp int
	}{
		{"fb_ioq", 865, 26},
		{"torus_iq", 1975, 515},
		{"clos_oq", 8658, 408},
		{"all_distinct", 4096, 1},
	} {
		b.Run(shape.name, func(b *testing.B) {
			s := NewSimulator(1)
			rotation := Tick((shape.pending + shape.perTimestamp - 1) / shape.perTimestamp)
			for i := 0; i < shape.pending; i++ {
				var h Handler
				h = HandlerFunc(func(ev *Event) {
					s.Schedule(h, ev.Time.Plus(rotation), 0, nil)
				})
				s.Schedule(h, Time{Tick: 1 + Tick(i/shape.perTimestamp)}, 0, nil)
			}
			s.RunUntil(1 + 4*rotation) // warm the event free list and the queue's arrays
			b.ReportAllocs()
			b.ResetTimer()
			events := uint64(0)
			for events < uint64(b.N) {
				events += s.RunUntil(s.Now().Tick + 1 + rotation)
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
