package taskrun

import "time"

// Clock supplies timestamps to task-lifecycle observers (the journal and the
// sweep monitor). The runner never reads a clock itself — simulation results
// stay a pure function of (config, seed) — but the observers stamp events, so
// the clock is injectable: production code uses WallClock, tests use
// FixedClock to pin byte-identical journal goldens.
//
// Probe implementations are invoked serially under the runner's scheduler
// lock, so a Clock needs no internal synchronization.
type Clock func() time.Time

// WallClock returns the real-time clock. This is the only wall-clock seam in
// the package.
func WallClock() Clock { return time.Now }

// FixedClock returns a deterministic Clock for tests: the first call returns
// start and each subsequent call advances by step, so a fixed event sequence
// yields a fixed timestamp sequence.
func FixedClock(start time.Time, step time.Duration) Clock {
	n := 0
	return func() time.Time {
		t := start.Add(time.Duration(n) * step)
		n++
		return t
	}
}
