package core

import (
	"testing"

	"supersim/internal/router"
	"supersim/internal/sim"
)

// The event budget, pinned: each router batches its self-events so that it
// holds at most one pending event per FIFO (DESIGN.md §4). The counts only
// show in Result.Events, which no test compares across changes, so a change
// that quietly went back to one event per output port or per route would
// pass every golden. TestRouterEventBudget steps every model through its run
// in short slices and at each pause holds every router to
// router.CheckPending.
const (
	budgetSlice   sim.Tick = 37 // ticks per slice: prime, so pauses fall on every clock phase
	budgetHorizon sim.Tick = 3000
)

func TestRouterEventBudget(t *testing.T) {
	for _, tc := range modelCases(eqBlast) {
		sm := Build(tc.cfg)
		for to := budgetSlice; to <= budgetHorizon; to += budgetSlice {
			sm.Sim.RunUntil(to)
			for i := 0; i < sm.Net.NumRouters(); i++ {
				if err := router.CheckPending(sm.Net.Router(i)); err != nil {
					t.Fatalf("%s at tick %d: %v", tc.name, to, err)
				}
			}
		}
	}
}
