package sweep_test

import (
	"fmt"
	"io"
	"log"

	"supersim/internal/config"
	"supersim/internal/sweep"
)

// The paper's Listing 2: one sweep variable and its apply function turn a
// base document into a campaign, here a small torus at channel latencies of
// 1 to 64 ticks, tabulated and rendered as the HTML viewer.
func ExampleSweep() {
	s := sweep.New(config.MustParse(`{
	  "simulation": {"seed": 5},
	  "network": {
	    "topology": "torus",
	    "dimensions": [4, 4],
	    "concentration": 1,
	    "channel": {"latency": 1, "period": 1},
	    "injection": {"latency": 1},
	    "router": {
	      "architecture": "input_queued",
	      "num_vcs": 2,
	      "input_buffer_depth": 150,
	      "crossbar_latency": 2
	    }
	  },
	  "workload": {
	    "applications": [{
	      "type": "blast",
	      "injection_rate": 0.3,
	      "message_size": 1,
	      "warmup_duration": 1000,
	      "sample_duration": 4000,
	      "traffic": {"type": "uniform_random"}
	    }]
	  }
	}`), 1)
	s.AddVariable(sweep.Variable{
		Name: "ChannelLatency", Short: "CL", Values: []any{1, 2, 4, 8, 16, 32, 64},
		Apply: func(cfg *config.Settings, v any) {
			cfg.Set("network.channel.latency", v.(int))
		},
	})
	points, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Points come back in sweep order.
	fmt.Printf("%-8s %9s %7s %5s\n", "latency", "accepted", "mean", "p99")
	for _, p := range points {
		fmt.Printf("%-8d %9.3f %7.1f %5.0f\n",
			p.Values["ChannelLatency"].(int), p.Accepted, p.Summary.Mean, p.Summary.P99)
	}
	if err := sweep.WriteReport(io.Discard, "channel latency sweep", points, "ChannelLatency"); err != nil {
		log.Fatal(err)
	}
	// Output:
	// latency   accepted    mean   p99
	// 1            0.296    13.9    22
	// 2            0.296    16.0    27
	// 4            0.296    20.3    34
	// 8            0.296    28.8    51
	// 16           0.296    45.9    83
	// 32           0.296    80.0   146
	// 64           0.296   148.2   275
}
