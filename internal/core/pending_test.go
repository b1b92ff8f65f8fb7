package core

import (
	"testing"

	"supersim/internal/config"
	"supersim/internal/router"
	"supersim/internal/sim"
	"supersim/internal/workload/apps"
)

// The event budget, pinned: each router batches its self-events so that it
// holds at most one pending event per FIFO, each router and interface holds
// one arrival event per distinct arrival tick, and each application one
// injection event per distinct due tick (DESIGN.md §4). The counts only
// show in Result.Events, which no test compares across changes, so a change
// that quietly went back to one event per output port, per route, per
// channel or per terminal would pass every golden. TestRouterEventBudget
// steps every model through its run in short slices and at each pause
// holds every router to router.CheckPending, every interface's arrival line
// to its CheckPending and every application to apps.CheckPending.
const (
	budgetSlice   sim.Tick = 37 // ticks per slice: prime, so pauses fall on every clock phase
	budgetHorizon sim.Tick = 3000
)

func TestRouterEventBudget(t *testing.T) {
	cases := modelCases(eqBlast)
	// A Pulse beside the Blast: its burst starts in the middle of the
	// sampling window, inside the horizon.
	cases = append(cases, allocCase{name: "blast_pulse", cfg: config.MustParse(allocDoc("torus", "", `"architecture": "input_queued"`,
		eqBlast+`, {"type": "pulse", "injection_rate": 0.3, "message_size": 2, "count": 20, "delay": 800,
		  "traffic": {"type": "uniform_random"}}`))})
	for _, tc := range cases {
		sm := Build(tc.cfg)
		for to := budgetSlice; to <= budgetHorizon; to += budgetSlice {
			sm.Sim.RunUntil(to)
			for i := 0; i < sm.Net.NumRouters(); i++ {
				if err := router.CheckPending(sm.Net.Router(i)); err != nil {
					t.Fatalf("%s at tick %d: %v", tc.name, to, err)
				}
			}
			for i := 0; i < sm.Net.NumTerminals(); i++ {
				if err := sm.Net.Interface(i).Arrivals().CheckPending(); err != nil {
					t.Fatalf("%s at tick %d: %v", tc.name, to, err)
				}
			}
			for i := 0; i < sm.Workload.NumApps(); i++ {
				if err := apps.CheckPending(sm.Workload.App(i)); err != nil {
					t.Fatalf("%s at tick %d: %v", tc.name, to, err)
				}
			}
		}
	}
}
