package main

import (
	"math"
	"time"

	"supersim/internal/core"
	"supersim/internal/sim"
	"supersim/internal/stats"
)

// The replay drivers time one layer's public functions, alone, on the shape
// the traced run just produced. A layer's replay time is its floor: what
// the run would still pay for that layer if everything around it were free.
// It sits next to the layer's in-situ CPU share, which includes the cache
// misses and GC pressure the rest of the run causes it.
//
// The snapshot layer needs no replay: Snapshot and Restore are already
// separate public calls with their own spans in the fb_ioq.ckpt run.

// replayStats records the run's own samples into fresh recorders, then
// summarizes them.
func (o *op) replayStats(parent int, sm *core.Simulation) {
	id := o.tr.begin("replay.stats", parent)
	defer o.tr.end(id)
	var record, summarize time.Duration
	for _, rec := range recorders(sm) {
		fresh := stats.NewRecorder()
		t0 := time.Now()
		for _, s := range rec.Samples() {
			fresh.Record(s)
		}
		t1 := time.Now()
		fresh.Summarize()
		record += t1.Sub(t0)
		summarize += time.Since(t1)
	}
	o.res.ReplayS["stats.record"] = record.Seconds()
	o.res.ReplayS["stats.summarize"] = summarize.Seconds()
}

// replayQueue runs as many events as the simulation executed through a
// bare simulator holding the run's mean number of pending events: that many
// handlers, each rescheduling itself one channel latency ahead, started at
// staggered ticks.
func (o *op) replayQueue(parent int) {
	id := o.tr.begin("replay.sim", parent)
	defer o.tr.end(id)
	handlers := int(math.Round(o.res.PendingMean))
	if handlers == 0 {
		return // the sharded engine has no single queue to replay
	}
	s := sim.NewSimulator(1)
	left := o.res.Events
	t0 := time.Now()
	for i := 0; i < handlers && left > 0; i++ {
		var h sim.Handler
		h = sim.HandlerFunc(func(ev *sim.Event) {
			if left > 0 {
				left--
				s.Schedule(h, sim.Time{Tick: ev.Time.Tick + o.latency}, 0, nil)
			}
		})
		left--
		s.Schedule(h, sim.Time{Tick: 1 + sim.Tick(i)%o.latency}, 0, nil)
	}
	s.Run()
	o.res.ReplayS["sim.queue"] = time.Since(t0).Seconds()
}
