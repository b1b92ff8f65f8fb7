package core_test

import (
	"fmt"
	"log"

	"supersim/internal/config"
	"supersim/internal/core"
	"supersim/internal/stats"
)

// Build a small 2D torus with input-queued routers, drive it with uniform
// random traffic at 30% load, and print the latency statistics of the
// sampled window: settings in, statistics out.
func Example() {
	cfg := config.MustParse(`{
	  "simulation": {"seed": 42},
	  "network": {
	    "topology": "torus",
	    "dimensions": [4, 4],
	    "concentration": 1,
	    "channel": {"latency": 10, "period": 1},
	    "injection": {"latency": 1},
	    "router": {
	      "architecture": "input_queued",
	      "num_vcs": 2,
	      "input_buffer_depth": 16,
	      "crossbar_latency": 5
	    }
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.3,
	      "message_size": 1,
	      "warmup_duration": 1000,
	      "sample_duration": 5000,
	      "traffic": {"type": "uniform_random"}
	    }]
	  }
	}`)
	sm := core.Build(cfg)
	fmt.Printf("network: %d routers, %d terminals, %d channels\n",
		sm.Net.NumRouters(), sm.Net.NumTerminals(), len(sm.Net.Channels()))

	res, err := sm.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d ticks\n", res.EndTick)

	s := sm.Workload.App(0).(stats.Provider).Stats().Summarize()
	fmt.Printf("sampled %d messages\n", s.Count)
	fmt.Printf("latency: mean=%.1f p50=%.0f p99=%.0f max=%.0f ticks\n",
		s.Mean, s.P50, s.P99, s.Max)
	fmt.Printf("mean hops: %.2f\n", s.MeanHops)
	// Output:
	// network: 16 routers, 16 terminals, 96 channels
	// simulated 6147 ticks
	// sampled 24234 messages
	// latency: mean=42.6 p50=40 p99=74 max=81 ticks
	// mean hops: 3.14
}
