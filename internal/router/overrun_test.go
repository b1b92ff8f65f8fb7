package router_test

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/router"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

// TestBufferOverrunPanics: a flit that arrives at a full input buffer panics
// on every router architecture, built through the package's public
// constructor with nothing enabled: the router's own check, which runs in
// every simulation, catches it.
func TestBufferOverrunPanics(t *testing.T) {
	toPort1 := func(int, int, congestion.Sensor, *rand.Rand) routing.Algorithm {
		return routing.AlgorithmFunc(func(sim.Tick, *types.Packet, int, int) routing.Response {
			return routing.Response{Port: 1, VCs: []int{0}}
		})
	}
	for _, arch := range router.Registry.Names() {
		t.Run(arch, func(t *testing.T) {
			s := sim.NewSimulator(1)
			doc := fmt.Sprintf(`{"architecture": %q, "num_vcs": 1, "input_buffer_depth": 2,
			  "routing_latency": 1, "crossbar_latency": 1}`, arch)
			r := router.New(s, "r0", config.MustParse(doc), router.Params{
				ID: 0, Radix: 2, RoutingCtor: toPort1, ChannelPeriod: 1,
			})
			// Three flits into a 2-deep buffer before the router runs: the
			// third must panic.
			p := types.NewMessage(1, 0, 5, 9, 3, 3).Packet(0)
			var got any
			func() {
				defer func() { got = recover() }()
				for fi := 0; fi < p.Size(); fi++ {
					r.ReceiveFlit(0, 0, p.Flit(fi))
				}
			}()
			if msg := fmt.Sprint(got); got == nil || !strings.Contains(msg, "input buffer overrun on port 0 vc 0") {
				t.Fatalf("panic = %v, want an input buffer overrun on port 0 vc 0", got)
			}
		})
	}
}
