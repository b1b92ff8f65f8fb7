package router

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"supersim/internal/channel"
	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

// TestCrossbarOneStartPerOutputPerCycle drives every input of an IQ and an
// IOQ router at one output, at speedup 1 and 2, and reads each flit's
// crossbar start off the internal datapath's delay line (due tick minus
// crossbar_latency): no output may start two traversals in one core cycle.
// The crossbar is a latency only; this rate is the pipeline's, which runs at
// most once per core cycle and grants each output one flit. The IOQ router
// at speedup 2 must also start flits in consecutive core cycles, so the
// test sees the bound reached, not just respected.
func TestCrossbarOneStartPerOutputPerCycle(t *testing.T) {
	const (
		radix, vcs    = 4, 2
		out           = radix - 1
		chanPeriod    = 2
		xbarLat       = 3
		packets, size = 3, 4
	)
	for _, arch := range []string{"input_queued", "input_output_queued"} {
		for _, speedup := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/speedup_%d", arch, speedup), func(t *testing.T) {
				s := sim.NewSimulator(1)
				doc := fmt.Sprintf(`{"architecture": %q, "num_vcs": %d, "input_buffer_depth": 64,
					"output_queue_depth": 64, "speedup": %d, "crossbar_latency": %d}`, arch, vcs, speedup, xbarLat)
				all := []int{0, 1}
				r := New(s, "r0", config.MustParse(doc), Params{
					Radix: radix, ChannelPeriod: chanPeriod,
					RoutingCtor: func(int, int, congestion.Sensor, *rand.Rand) routing.Algorithm {
						return routing.AlgorithmFunc(func(sim.Tick, *types.Packet, int, int) routing.Response {
							return routing.Response{Port: out, VCs: all}
						})
					},
				})
				sink := &flitSink{s: s}
				ch := channel.New(s, "out", 1, chanPeriod)
				ch.SetSink(sink, 0)
				r.ConnectOutput(out, ch)
				r.SetDownstreamCredits(out, 1024)
				ups := &creditSink{s: s}
				for port := 0; port < radix; port++ {
					cc := channel.NewCredit(s, fmt.Sprintf("cr%d", port), 1)
					cc.SetSink(ups, port)
					r.ConnectCreditOut(port, cc)
				}
				inject := sim.HandlerFunc(func(*sim.Event) {
					for port := 0; port < radix; port++ {
						for p := 0; p < packets; p++ {
							m := types.NewMessage(uint64(port*packets+p), 0, port, 9, size, size)
							for i := 0; i < size; i++ {
								r.ReceiveFlit(port, p%vcs, m.Packet(0).Flit(i))
							}
						}
					}
				})
				s.Schedule(inject, sim.Time{Tick: 1}, 0, nil)

				dl := &baseOf(r).dl
				corePeriod := sim.Tick(chanPeriod / speedup)
				started := map[*types.Flit]bool{}
				perCycle := map[sim.Tick]int{}
				for tick := sim.Tick(2); s.Pending() > 0; tick++ {
					s.RunUntil(tick)
					for _, e := range dl.q.Live() {
						if e.v.port != out || started[e.v.f] {
							continue
						}
						started[e.v.f] = true
						start := e.at - xbarLat
						if start%corePeriod != 0 {
							t.Fatalf("flit started at tick %d, off the core clock's edges", start)
						}
						if perCycle[start/corePeriod]++; perCycle[start/corePeriod] > 1 {
							t.Fatalf("output %d started %d traversals in the core cycle at tick %d", out, perCycle[start/corePeriod], start)
						}
					}
				}
				if n := radix * packets * size; len(started) != n || len(sink.flits) != n {
					t.Fatalf("%d crossbar starts and %d flits delivered, want %d", len(started), len(sink.flits), n)
				}
				back2back := false
				for c := range perCycle {
					back2back = back2back || perCycle[c+1] > 0
				}
				if arch == "input_output_queued" && speedup == 2 && !back2back {
					t.Fatal("no two starts in consecutive core cycles: the output never ran at the crossbar's rate")
				}
			})
		}
	}
}
