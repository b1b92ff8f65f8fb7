package experiments

import (
	"math"
	"testing"
)

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

// TestFigure8Claim: UGAL sends a share of traffic non-minimally at low load
// (phantom congestion) that falls by about a decade per step in load (§IV-D:
// more than 1 in 10 at zero load, about 1 in 100 at 12%, under 1 in 10,000
// by 40%). Measured at seed 1 on the 256-terminal flattened butterfly: 10.7%
// at 2% load, 1.04% at 12% and 0.01% at 40%, so the middle point misses the
// paper's "< 1%" by a hair; the test asserts decade bands instead.
func TestFigure8Claim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three simulations")
	}
	prev := 1.0
	for _, c := range []struct{ load, atLeast, below float64 }{
		{0.02, 0.05, 1},
		{0.12, 0.003, 0.03},
		{0.40, 0, 0.001},
	} {
		p := runBlast(fbConfig(16, 16, AccountingStyle{"port", "both"}, "uniform_random", c.load, 1, 4000)).point(c.load)
		t.Logf("load %.2f: non-minimal %.4f%%, accepted %.3f", c.load, 100*p.NonMinimal, p.Accepted)
		if p.NonMinimal < c.atLeast || p.NonMinimal >= c.below {
			t.Errorf("load %.2f: non-minimal fraction %.5f, want in [%g, %g)", c.load, p.NonMinimal, c.atLeast, c.below)
		}
		if p.NonMinimal > prev {
			t.Errorf("load %.2f: non-minimal fraction %.5f rose from %.5f at the lower load", c.load, p.NonMinimal, prev)
		}
		prev = p.NonMinimal
	}
}

// TestFigure10bClaim: under bit-complement traffic VC-based credit
// accounting senses congestion better than port-based accounting, and
// downstream-only credits sense it worst (§VI-B): each VC style beats each
// port style among the output and both sources, vc/downstream beats
// port/downstream, and both downstream-only styles sit below the other four.
// One offered load past every style's saturation (0.6) shows it; measured
// at seed 1, accepted: vc/output 0.527, vc/both 0.526, port/output 0.517,
// port/both 0.506, vc/downstream 0.474 and port/downstream 0.344.
func TestFigure10bClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six simulations")
	}
	const load = 0.6
	got := map[AccountingStyle]float64{}
	for _, st := range AccountingStyles {
		got[st] = runBlast(fbConfig(16, 16, st, "bit_complement", load, 1, 4000)).accepted
		t.Logf("%v: accepted %.4f", st, got[st])
	}
	if vc, port := got[AccountingStyle{"vc", "downstream"}], got[AccountingStyle{"port", "downstream"}]; vc <= port {
		t.Errorf("downstream credits: vc-based accepted %.4f, not above port-based %.4f", vc, port)
	}
	for _, vc := range []string{"output", "both"} {
		for _, port := range []string{"output", "both"} {
			a, b := AccountingStyle{"vc", vc}, AccountingStyle{"port", port}
			if got[a] <= got[b] {
				t.Errorf("%v accepted %.4f, not above %v's %.4f", a, got[a], b, got[b])
			}
		}
	}
	for _, down := range []AccountingStyle{{"vc", "downstream"}, {"port", "downstream"}} {
		for _, st := range AccountingStyles {
			if st.Source != "downstream" && got[down] >= got[st] {
				t.Errorf("%v accepted %.4f, not below %v's %.4f", down, got[down], st, got[st])
			}
		}
	}
}

// TestFigure11Claim: a single-flit packet is its own head and tail, so the
// three flow control techniques make identical decisions for it and a
// single-flit run is bit-identical under FB, PB and WTA (§VI-C), at any VC
// count. A 16-node torus at full offered load shows it; every sample row
// must match, not just the throughput.
func TestFigure11Claim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six simulations")
	}
	for _, vcs := range []int{2, 8} {
		var ref runResult
		for i, fc := range FlowControls {
			r := runBlast(torusConfig(2, vcs, 1, fc, 1.0, 1, 1500))
			if i == 0 {
				ref = r
				t.Logf("%d VCs: accepted %.4f, %d samples", vcs, r.accepted, r.rec.Count())
				continue
			}
			if r.accepted != ref.accepted || r.rec.Count() != ref.rec.Count() {
				t.Fatalf("%d VCs, %s: accepted %v over %d samples, %s %v over %d",
					vcs, fc, r.accepted, r.rec.Count(), FlowControls[0], ref.accepted, ref.rec.Count())
			}
			for j := 0; j < r.rec.Count(); j++ {
				if r.rec.At(j) != ref.rec.At(j) {
					t.Fatalf("%d VCs, %s: sample %d is %+v, %s's is %+v", vcs, fc, j, r.rec.At(j), FlowControls[0], ref.rec.At(j))
				}
			}
		}
	}
}

// TestFigure12Claim pins today's latency order for 32-flit messages over
// 8 VCs on the 256-node torus at 0.8 load: PB and WTA tie below FB
// (measured at seed 1: PB 380.0, WTA 380.0, FB 418.1 ns mean). This is the
// known divergence from the paper, whose Figure 12 has FB lowest and PB
// highest at 4096 nodes (EXPERIMENTS.md, Figure 12); the test is here so
// that any change to the order gets noticed.
func TestFigure12Claim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three simulations")
	}
	mean := map[string]float64{}
	for _, fc := range FlowControls {
		mean[fc] = runBlast(torusConfig(4, 8, 32, fc, 0.8, 1, 1500)).point(0.8).Mean
		t.Logf("%s: mean latency %.2f ns", fc, mean[fc])
	}
	fb, pb, wta := mean["flit_buffer"], mean["packet_buffer"], mean["winner_take_all"]
	if math.Abs(pb-wta) > 0.01*pb {
		t.Errorf("PB %.2f and WTA %.2f no longer tie within 1%%", pb, wta)
	}
	if fb <= 1.05*max(pb, wta) {
		t.Errorf("FB %.2f is no longer 5%% above PB %.2f and WTA %.2f", fb, pb, wta)
	}
}
