package routing

import (
	"math/rand/v2"
	"testing"

	"supersim/internal/congestion"
	"supersim/internal/sim"
	"supersim/internal/types"
)

// mapSensor is a test sensor with fixed per-(port,vc) values.
type mapSensor map[[2]int]float64

func (m mapSensor) Congestion(now sim.Tick, port, vc int) float64 {
	return m[[2]int{port, vc}]
}

func TestLeastCongestedPicksMinimum(t *testing.T) {
	sensor := mapSensor{{0, 0}: 5, {1, 0}: 2, {2, 0}: 9}
	rng := rand.New(rand.NewPCG(1, 2))
	cands := []Candidate{{0, 0}, {1, 0}, {2, 0}}
	got := LeastCongested(0, sensor, rng, cands)
	if got.Port != 1 {
		t.Fatalf("picked port %d, want 1", got.Port)
	}
}

func TestLeastCongestedTieBreakUniform(t *testing.T) {
	sensor := mapSensor{{0, 0}: 3, {1, 0}: 3, {2, 0}: 7}
	rng := rand.New(rand.NewPCG(3, 4))
	counts := map[int]int{}
	cands := []Candidate{{0, 0}, {1, 0}, {2, 0}}
	const trials = 2000
	for i := 0; i < trials; i++ {
		counts[LeastCongested(0, sensor, rng, cands).Port]++
	}
	if counts[2] != 0 {
		t.Fatalf("congested port chosen %d times", counts[2])
	}
	for _, p := range []int{0, 1} {
		if counts[p] < trials/3 || counts[p] > 2*trials/3 {
			t.Fatalf("tie break skewed: %v", counts)
		}
	}
}

func TestLeastCongestedSingle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	got := LeastCongested(0, mapSensor{}, rng, []Candidate{{4, 1}})
	if got.Port != 4 || got.VC != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestLeastCongestedEmptyPanics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LeastCongested(0, mapSensor{}, rng, nil)
}

func TestLeastCongestedUsesDelayedView(t *testing.T) {
	// With a real credit sensor and latency, routing decisions see stale
	// values — the heart of the latent congestion detection case study.
	cs := congestion.NewCreditSensor(2, 1, congestion.PerPort, congestion.SourceOutput, 10)
	cs.AddOutput(100, 0, 0, 50) // port 0 becomes congested at t=100
	rng := rand.New(rand.NewPCG(9, 9))
	cands := []Candidate{{0, 0}, {1, 0}}
	// At t=105 the congestion is not yet visible: both look idle, ties split.
	sawZero := false
	for i := 0; i < 50; i++ {
		if LeastCongested(105, cs, rng, cands).Port == 0 {
			sawZero = true
		}
	}
	if !sawZero {
		t.Fatal("stale view should still sometimes pick port 0")
	}
	// At t=111 the congestion is visible: always port 1.
	for i := 0; i < 50; i++ {
		if got := LeastCongested(111, cs, rng, cands); got.Port != 1 {
			t.Fatalf("visible congestion ignored: %+v", got)
		}
	}
}

func TestAlgorithmFunc(t *testing.T) {
	alg := AlgorithmFunc(func(now sim.Tick, pkt *types.Packet, inPort, inVC int) Response {
		return Response{Port: inPort + 1, VCs: []int{inVC}}
	})
	resp := alg.Route(0, nil, 2, 1)
	if resp.Port != 3 || len(resp.VCs) != 1 || resp.VCs[0] != 1 {
		t.Fatalf("resp = %+v", resp)
	}
}
