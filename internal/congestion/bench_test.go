package congestion

import (
	"testing"

	"supersim/internal/sim"
)

// BenchmarkCreditSensor drives one router's sensor the way the two
// benchmark workloads that build one do: every tick a flit enters and one
// leaves an output queue, a credit goes downstream and one comes back, and
// routing reads the congestion of two ports. One op is one tick.
//
//   - clos_oq: per-port accounting of output occupancy, a 4-tick sensing
//     latency, 16 ports of 1 VC;
//   - fb_ioq: per-port accounting of both sources, no sensing latency,
//     15 ports of 2 VCs.
func BenchmarkCreditSensor(b *testing.B) {
	for _, sh := range []struct {
		name       string
		ports, vcs int
		src        Source
		latency    sim.Tick
	}{
		{"clos_oq", 16, 1, SourceOutput, 4},
		{"fb_ioq", 15, 2, SourceBoth, 0},
	} {
		b.Run(sh.name, func(b *testing.B) {
			cs := NewCreditSensor(sh.ports, sh.vcs, PerPort, sh.src, sh.latency)
			// Start every queue a few flits deep so departures never underrun.
			for p := 0; p < sh.ports; p++ {
				for v := 0; v < sh.vcs; v++ {
					cs.AddOutput(0, p, v, 4)
					cs.AddDownstream(0, p, v, 4)
				}
			}
			sink := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			// A flit enters an output queue every tick and leaves it five ticks
			// later; the downstream credit it takes comes back three ticks later.
			slot := func(k, off int) (int, int) { return (k + off) % sh.ports, (k / sh.ports) % sh.vcs }
			for i := 0; i < b.N; i++ {
				now := sim.Tick(i + 1)
				p, v := slot(i+5, 0)
				cs.AddOutput(now, p, v, 1)
				p, v = slot(i, 0)
				cs.AddOutput(now, p, v, -1)
				p, v = slot(i+3, 7)
				cs.AddDownstream(now, p, v, 1)
				p, v = slot(i, 7)
				cs.AddDownstream(now, p, v, -1)
				sink += cs.Congestion(now, (i*3)%sh.ports, 0) + cs.Congestion(now, (i*5+1)%sh.ports, 0)
			}
			if sink < 0 {
				b.Fatal("negative congestion")
			}
		})
	}
}
