package sim_test

import (
	"fmt"

	"supersim/internal/sim"
)

// A minimal discrete event simulation: one handler reschedules itself three
// times, one tick apart, then lets the queue run empty.
func Example() {
	s := sim.NewSimulator(1)
	var h sim.Handler
	count := 0
	h = sim.HandlerFunc(func(ev *sim.Event) {
		count++
		fmt.Printf("event %d at %v\n", count, s.Now())
		if count < 3 {
			s.Schedule(h, s.Now().Plus(1), 0, nil)
		}
	})
	s.Schedule(h, sim.Time{Tick: 10}, 0, nil)
	s.Run()
	// Output:
	// event 1 at 10.0
	// event 2 at 11.0
	// event 3 at 12.0
}

// Clocks place work on cycle edges; a 2x core clock over a 1 GHz link
// (1 tick = 0.5 ns) has a period of 1 tick vs the link's 2.
func ExampleClock() {
	link := sim.NewClock(2)
	core := sim.NewClock(1)
	fmt.Println(link.NextEdge(3), core.NextEdge(3))
	fmt.Println(link.FutureEdge(3, 2), core.FutureEdge(3, 2))
	// Output:
	// 4 3
	// 8 5
}
