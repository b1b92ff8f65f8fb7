package experiments

import "testing"

// figure9Point runs the claim-test scale of case study A: a 64-terminal
// radix-16 two-level folded Clos of OQ routers under adaptive up-routing at
// 90% offered load, sensing congestion with the given latency (ns).
func figure9Point(t *testing.T, senseLatency uint64, outDepth int) LoadPoint {
	t.Helper()
	p := runBlast(closConfig(8, 2, senseLatency, outDepth, 0.9, 1, 1500)).point(0.9)
	t.Logf("sense latency %d ns, output depth %d: accepted %.3f, mean latency %.1f ns",
		senseLatency, outDepth, p.Accepted, p.Mean)
	return p
}

// TestFigure9aClaim: with infinite output queues a stale congestion view
// costs latency but no throughput. Every sensing latency accepts the offered
// load, and mean latency grows with the latency (measured at seed 1:
// accepted 0.901 throughout, mean 262/266/273/287 ns at 1/2/4/8 ns).
func TestFigure9aClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulations")
	}
	prevMean := 0.0
	for _, sl := range []uint64{1, 2, 4, 8} {
		p := figure9Point(t, sl, 0)
		if p.Accepted < 0.88 {
			t.Errorf("sense latency %d ns: accepted %.3f of 0.9 offered", sl, p.Accepted)
		}
		if p.Mean <= prevMean {
			t.Errorf("sense latency %d ns: mean latency %.1f ns not above %.1f ns at the shorter latency",
				sl, p.Mean, prevMean)
		}
		prevMean = p.Mean
	}
}

// TestSectionVIAClaim: with 64-flit output queues a stale congestion view
// costs throughput (§VI-A: 90%, 90%, 75% and 40% at 1, 2, 4 and 8 ns). Measured
// at seed 1: accepted 0.901, 0.901, 0.805 and 0.475.
func TestSectionVIAClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulations")
	}
	for _, c := range []struct {
		senseLatency uint64
		atLeast      float64 // 0: no lower bound
		below        float64 // 0: no upper bound
	}{
		{1, 0.88, 0},
		{2, 0.88, 0},
		{4, 0, 0.85},
		{8, 0, 0.6},
	} {
		p := figure9Point(t, c.senseLatency, 64)
		if c.atLeast > 0 && p.Accepted < c.atLeast {
			t.Errorf("sense latency %d ns: accepted %.3f, want at least %.2f", c.senseLatency, p.Accepted, c.atLeast)
		}
		if c.below > 0 && p.Accepted >= c.below {
			t.Errorf("sense latency %d ns: accepted %.3f, want below %.2f", c.senseLatency, p.Accepted, c.below)
		}
	}
}
