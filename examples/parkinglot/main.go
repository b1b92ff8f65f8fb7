// Parking lot fairness: terminals along a chain all send to terminal 0, so
// flows merge at every router toward the sink. Round-robin arbitration
// halves the far terminals' bandwidth at every merge; age-based arbitration
// restores fairness. The example runs both policies on the parking-lot
// stress topology and prints per-source delivery counts.
package main

import (
	"fmt"
	"log"

	"supersim/internal/config"
	"supersim/internal/core"
	"supersim/internal/stats"
)

const base = `{
  "simulation": {"seed": 21},
  "network": {
    "topology": "parking_lot",
    "routers": 6,
    "channel": {"latency": 4, "period": 2},
    "injection": {"latency": 2},
    "router": {
      "architecture": "input_queued",
      "num_vcs": 1,
      "input_buffer_depth": 8,
      "crossbar_latency": 2,
      "crossbar_policy": "POLICY",
      "vc_policy": "POLICY"
    }
  },
  "workload": {
    "applications": [{
      "type": "blast",
      "injection_rate": 0.9,
      "message_size": 1,
      "warmup_duration": 1000,
      "sample_duration": 10000,
      "source_queue_limit": 16,
      "traffic": {"type": "fixed", "destination": 0}
    }]
  }
}`

func run(policy string) map[int]int {
	cfg := config.MustParse(base)
	cfg.Set("network.router.crossbar_policy", policy)
	cfg.Set("network.router.vc_policy", policy)
	sm := core.Build(cfg)
	if _, err := sm.Run(); err != nil {
		log.Fatal(err)
	}
	counts := map[int]int{}
	rec := sm.Workload.App(0).(stats.Provider).Stats()
	for i := 0; i < rec.Count(); i++ {
		counts[rec.At(i).Src]++
	}
	return counts
}

func main() {
	for _, policy := range []string{"round_robin", "age_based"} {
		counts := run(policy)
		fmt.Printf("%s arbitration — deliveries to terminal 0 by source:\n", policy)
		for src := 1; src <= 5; src++ {
			bar := ""
			for i := 0; i < counts[src]/100; i++ {
				bar += "#"
			}
			fmt.Printf("  source %d (distance %d): %5d %s\n", src, src, counts[src], bar)
		}
		fmt.Println()
	}
	fmt.Println("age-based arbitration equalizes service; round-robin starves far sources.")
}
