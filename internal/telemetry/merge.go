package telemetry

import "supersim/internal/sim"

// mergeByStamp replays the per-shard span lanes in the global
// partition-independent event order. Each lane k holds operations appended by
// shard k's goroutine in its local execution order, tagged with the stamp of
// the event that produced them. Two engine invariants make a k-way merge by
// stamp reproduce the serial order exactly:
//
//   - each shard's local execution order is the serial order restricted to
//     that shard (events are keyed by (tick, epsilon, owner, oseq), which is
//     independent of the partition), so every lane is already sorted by stamp;
//   - a stamp identifies one executing event, which runs on exactly one
//     shard, so equal stamps never occur across lanes — operations with equal
//     stamps all sit in one lane, where their append order is the serial
//     emission order.
//
// The merge therefore takes the strictly smallest head stamp each step and
// preserves intra-lane order for runs of equal stamps. Cost is O(operations ×
// lanes); lanes is the worker count, which is small.
//
// mergeByStamp must only run while no shard goroutine is recording — the
// engine's RunUntil WaitGroup is the happens-before edge that publishes the
// lanes to the sealing goroutine.
func mergeByStamp(lanes [][]spanOp, apply func(*spanOp)) {
	idx := make([]int, len(lanes))
	for {
		best := -1
		var bs sim.Stamp
		for k := range lanes {
			if idx[k] >= len(lanes[k]) {
				continue
			}
			s := lanes[k][idx[k]].stamp
			if best < 0 || s.Less(bs) {
				best, bs = k, s
			}
		}
		if best < 0 {
			return
		}
		apply(&lanes[best][idx[best]])
		idx[best]++
	}
}
