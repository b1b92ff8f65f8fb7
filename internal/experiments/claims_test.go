package experiments

import (
	"math"
	"testing"

	"supersim/internal/config"
	"supersim/internal/stats"
	"supersim/internal/sweep"
)

// Every claim test but TestFigure10bClaim calls t.Parallel. Its six points
// keep GOMAXPROCS workers busy on their own; the others run beside
// TestFigure12Claim, which comes first so that they fill the worker its
// three points leave idle for a third of its run. Go starts parallel tests
// only after every sequential test of the package has finished, so none of
// their simulations runs during TestFigure5AllocationBudget's process-wide
// MemStats delta.

// senseLatencies are the claim tests' congestion sensing latencies (ns).
var senseLatencies = []uint64{1, 2, 4, 8}

// figure9Points runs the claim-test scale of case study A: a 64-terminal
// radix-16 two-level folded Clos of OQ routers under adaptive up-routing at
// 90% offered load, one point per sensing latency.
func figure9Points(t *testing.T, outDepth int) []LoadPoint {
	t.Helper()
	points := onePointEach(t, figure9(Options{Seed: 1}, "fig9", 8, 2, outDepth, senseLatencies, []float64{0.9}, 1500))
	for i, p := range points {
		t.Logf("sense latency %d ns, output depth %d: accepted %.3f, mean latency %.1f ns",
			senseLatencies[i], outDepth, p.Accepted, p.Mean)
	}
	return points
}

// onePointEach returns the single point of each single-load curve.
func onePointEach(t *testing.T, curves []Curve) []LoadPoint {
	t.Helper()
	var out []LoadPoint
	for _, c := range curves {
		if len(c.Points) != 1 {
			t.Fatalf("curve %q has %d points, want 1", c.Label, len(c.Points))
		}
		out = append(out, c.Points[0])
	}
	return out
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
	t.Parallel()
	mean := map[string]float64{}
	for i, p := range onePointEach(t, figure12(Options{Seed: 1}, 4, []float64{0.8}, 1500)) {
		fc := FlowControls[i]
		mean[fc] = p.Mean
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

// TestFigure9aClaim: with infinite output queues a stale congestion view
// costs latency but no throughput. Every sensing latency accepts the offered
// load, and mean latency grows with the latency (measured at seed 1:
// accepted 0.901 throughout, mean 262/266/273/287 ns at 1/2/4/8 ns).
func TestFigure9aClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulations")
	}
	t.Parallel()
	prevMean := 0.0
	for i, p := range figure9Points(t, 0) {
		sl := senseLatencies[i]
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
	t.Parallel()
	points := figure9Points(t, 64)
	for i, c := range []struct {
		senseLatency uint64
		atLeast      float64 // 0: no lower bound
		below        float64 // 0: no upper bound
	}{
		{1, 0.88, 0},
		{2, 0.88, 0},
		{4, 0, 0.85},
		{8, 0, 0.6},
	} {
		p := points[i]
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
	t.Parallel()
	cases := []struct{ load, atLeast, below float64 }{
		{0.02, 0.05, 1},
		{0.12, 0.003, 0.03},
		{0.40, 0, 0.001},
	}
	var loads []float64
	for _, c := range cases {
		loads = append(loads, c.load)
	}
	points := figure8(Options{Seed: 1}, 16, 16, loads, 4000)[0].Points
	if len(points) != len(cases) {
		t.Fatalf("the curve stopped after %d of %d loads: %+v", len(points), len(cases), points)
	}
	prev := 1.0
	for i, c := range cases {
		p := points[i]
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
	points := onePointEach(t, figure10(Options{Seed: 1}, "fig10b", 16, 16, "bit_complement", []float64{load}, 4000))
	for i, st := range AccountingStyles {
		got[st] = points[i].Accepted
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
	t.Parallel()
	vcsSet := []int{2, 8}
	s := figure11(Options{Seed: 1}, 2, vcsSet, []int{1}, 1500)
	rows := map[string][]stats.Sample{} // by point id
	s.OnPoint = func(p sweep.Point, rec *stats.Recorder) {
		for j := 0; j < rec.Count(); j++ {
			rows[p.ID] = append(rows[p.ID], rec.At(j))
		}
	}
	points := run(s)
	if len(points) != len(vcsSet)*len(FlowControls) {
		t.Fatalf("%d points, want %d", len(points), len(vcsSet)*len(FlowControls))
	}
	for _, vcs := range vcsSet {
		var ref sweep.Point
		for _, p := range points {
			if p.Values["vcs"] != vcs {
				continue
			}
			fc, r := p.Values["fc"], rows[p.ID]
			if fc == FlowControls[0] {
				ref = p
				t.Logf("%d VCs: accepted %.4f, %d samples", vcs, p.Accepted, len(r))
				continue
			}
			refRows := rows[ref.ID]
			if p.Accepted != ref.Accepted || len(r) != len(refRows) {
				t.Fatalf("%d VCs, %s: accepted %v over %d samples, %s %v over %d",
					vcs, fc, p.Accepted, len(r), FlowControls[0], ref.Accepted, len(refRows))
			}
			for j := range r {
				if r[j] != refRows[j] {
					t.Fatalf("%d VCs, %s: sample %d is %+v, %s's is %+v", vcs, fc, j, r[j], FlowControls[0], refRows[j])
				}
			}
		}
	}
}

// TestTorusThroughputBound: under uniform random traffic a k-ary n-cube
// accepts at most its bisection bound, 8/k of a terminal's bandwidth (Dally
// & Towles). Rings of 10, 12 and 16 nodes, offered full load, put the bound
// below 1, so a routing or topology bug that raises throughput past it
// reads as wrong. Measured at seed 1: 0.334, 0.271 and 0.164 against 0.8,
// 0.667 and 0.5 (dimension order routing splits the VCs at the dateline).
func TestTorusThroughputBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three simulations")
	}
	t.Parallel()
	base := config.MustParse(`{
	  "simulation": {"seed": 1},
	  "network": {
	    "topology": "torus", "dimensions": [16], "concentration": 1,
	    "channel": {"latency": 1, "period": 1},
	    "injection": {"latency": 1},
	    "router": {"architecture": "input_queued", "num_vcs": 2,
	      "input_buffer_depth": 16, "crossbar_latency": 1},
	    "routing": {"algorithm": "dimension_order"}
	  },
	  "workload": {"applications": [{
	    "type": "blast", "injection_rate": 1.0, "message_size": 1,
	    "source_queue_limit": 32,
	    "warmup_duration": 2000, "sample_duration": 4000,
	    "traffic": {"type": "uniform_random"}
	  }]}
	}`)
	// The bound holds for the long-run rate. Accepted counts the flits of
	// the messages created in the 4000-tick window, and creation can run
	// ahead of the network by what one terminal's source queue and its
	// router's input buffers hold (32 one-flit messages, 3 ports × 2 VCs ×
	// 16 flits), so that much over the window is allowed.
	const slack = (32 + 3*2*16) / 4000.0
	s := Options{Seed: 1}.sweep("bound", base, variable("k", []int{10, 12, 16}, func(cfg *config.Settings, k int) {
		cfg.Set("network.dimensions", []any{k})
	}))
	points := run(s)
	if len(points) != 3 {
		t.Fatalf("%d points, want 3", len(points))
	}
	for _, p := range points {
		k := p.Values["k"].(int)
		bound := 8 / float64(k)
		t.Logf("%d-node ring: accepted %.4f, bisection bound %.4f", k, p.Accepted, bound)
		if p.Accepted > bound+slack {
			t.Errorf("%d-node ring: accepted %.4f exceeds the bisection bound %.4f (+%.3f)", k, p.Accepted, bound, slack)
		}
	}
}
