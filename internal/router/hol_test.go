package router

import (
	"math/rand/v2"
	"testing"

	"supersim/internal/channel"
	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

// vc0Ctor routes every packet to port 1 offering only VC 0, so a second
// packet on another input VC must wait for the first one's grant — the
// head-of-line state the HOL inspector reports.
func vc0Ctor() routing.Ctor {
	return func(routerID, inputPort int, sensor congestion.Sensor, rng *rand.Rand) routing.Algorithm {
		return routing.AlgorithmFunc(func(now sim.Tick, pkt *types.Packet, inPort, inVC int) routing.Response {
			return routing.Response{Port: 1, VCs: []int{0}}
		})
	}
}

// buildHOLRouter is buildLoneRouter with a custom routing ctor and no
// automatic credit return, so stalled states freeze for inspection.
func buildHOLRouter(t *testing.T, cfgDoc string, vcs, downCredits int) (*sim.Simulator, Router) {
	t.Helper()
	s := sim.NewSimulator(1)
	r := New(s, "r0", config.MustParse(cfgDoc), Params{
		ID: 0, Radix: 2, RoutingCtor: vc0Ctor(), ChannelPeriod: 1,
	})
	out := &flitSink{s: s}
	ch := channel.New(s, "out", 1, 1)
	ch.SetSink(out, 0)
	r.ConnectOutput(1, ch)
	r.SetDownstreamCredits(1, downCredits)
	crs := &creditSink{s: s}
	cc := channel.NewCredit(s, "cr", 1)
	cc.SetSink(crs, 0)
	r.ConnectCreditOut(0, cc)
	return s, r
}

// pushHOL schedules a packet's flits into port 0 on the given VC, one per tick.
func pushHOL(s *sim.Simulator, r Router, id uint64, size, vc int, atTick sim.Tick) {
	m := types.NewMessage(id, 0, 5, 9, size, size)
	for i := 0; i < m.Packet(0).Size(); i++ {
		f := m.Packet(0).Flit(i)
		s.Schedule(sim.HandlerFunc(func(*sim.Event) { r.ReceiveFlit(0, vc, f) }),
			sim.Time{Tick: atTick + sim.Tick(i)}, 0, nil)
	}
}

func TestIQHOLPhases(t *testing.T) {
	doc := `{
	  "architecture": "input_queued",
	  "num_vcs": 2,
	  "input_buffer_depth": 8,
	  "routing_latency": 2,
	  "crossbar_latency": 1
	}`
	s, r := buildHOLRouter(t, doc, 2, 1)

	if st := r.HOL(0, 0); st.Phase != HOLEmpty || st.Occupancy != 0 || st.Flit != nil {
		t.Fatalf("idle router HOL = %+v, want empty", st)
	}
	if r.OutputChannel(1) == nil || r.OutputChannel(0) != nil {
		t.Fatal("OutputChannel must reflect wiring: port 1 connected, port 0 not")
	}

	pushHOL(s, r, 1, 3, 0, 10) // packet A: claims out VC 0, one credit, then stalls
	pushHOL(s, r, 2, 2, 1, 10) // packet B: wants the same out VC, held by A

	// Probe between head arrival (t=10) and route completion (t=12).
	s.Schedule(sim.HandlerFunc(func(*sim.Event) {
		if st := r.HOL(0, 0); st.Phase != HOLRouting || st.Occupancy < 1 || st.Flit == nil {
			t.Errorf("mid-routing HOL = %+v, want routing", st)
		}
	}), sim.Time{Tick: 11}, 0, nil)
	s.Run()

	a := r.HOL(0, 0)
	if a.Phase != HOLAllocated || a.OutPort != 1 || a.OutVC != 0 {
		t.Fatalf("packet A HOL = %+v, want allocated out(1, 0)", a)
	}
	if a.Credits != 0 || a.CreditCap != 1 {
		t.Fatalf("packet A credits %d/%d, want 0/1 (starved)", a.Credits, a.CreditCap)
	}
	if a.OutDepth != -1 {
		t.Fatalf("IQ has no output queues, OutDepth = %d, want -1", a.OutDepth)
	}
	b := r.HOL(0, 1)
	if b.Phase != HOLAwaitingVC || b.WantPort != 1 || len(b.WantVCs) != 1 || b.WantVCs[0] != 0 {
		t.Fatalf("packet B HOL = %+v, want awaiting out port 1 vc [0]", b)
	}
	if b.HolderPort != 0 || b.HolderVC != 0 {
		t.Fatalf("packet B holder = (%d, %d), want packet A at in(0, 0)", b.HolderPort, b.HolderVC)
	}
}

func TestOQHOLPhases(t *testing.T) {
	doc := `{
	  "architecture": "output_queued",
	  "num_vcs": 2,
	  "input_buffer_depth": 8,
	  "queue_latency": 1,
	  "output_queue_depth": 1
	}`
	s, r := buildHOLRouter(t, doc, 2, 1)

	if st := r.HOL(0, 1); st.Phase != HOLEmpty {
		t.Fatalf("idle router HOL = %+v, want empty", st)
	}

	pushHOL(s, r, 1, 3, 0, 10) // fills the 1-deep output queue, then stalls
	pushHOL(s, r, 2, 2, 1, 10) // wants the queue A owns
	s.Run()

	a := r.HOL(0, 0)
	if a.Phase != HOLAllocated || a.OutPort != 1 || a.OutVC != 0 {
		t.Fatalf("packet A HOL = %+v, want allocated out(1, 0)", a)
	}
	if a.Credits != 0 || a.OutQueued != 1 || a.OutDepth != 1 {
		t.Fatalf("packet A credits %d outq %d/%d, want 0 and 1/1 (queue full, drain starved)",
			a.Credits, a.OutQueued, a.OutDepth)
	}
	b := r.HOL(0, 1)
	if b.Phase != HOLAwaitingVC || b.WantPort != 1 {
		t.Fatalf("packet B HOL = %+v, want awaiting out port 1", b)
	}
	if b.HolderPort != 0 || b.HolderVC != 0 {
		t.Fatalf("packet B holder = (%d, %d), want packet A at in(0, 0)", b.HolderPort, b.HolderVC)
	}
}

func TestIOQHOLReportsOutputQueue(t *testing.T) {
	doc := `{
	  "architecture": "input_output_queued",
	  "num_vcs": 2,
	  "speedup": 1,
	  "input_buffer_depth": 8,
	  "output_queue_depth": 1,
	  "crossbar_latency": 1
	}`
	s, r := buildHOLRouter(t, doc, 2, 1)
	pushHOL(s, r, 1, 3, 0, 10)
	s.Run()

	a := r.HOL(0, 0)
	if a.Phase != HOLAllocated {
		t.Fatalf("packet A HOL = %+v, want allocated", a)
	}
	if a.OutQueued != 1 || a.OutDepth != 1 {
		t.Fatalf("packet A outq %d/%d, want 1/1 (output queue full)", a.OutQueued, a.OutDepth)
	}
	if st := r.HOL(0, 1); st.Phase != HOLEmpty {
		t.Fatalf("untouched VC HOL = %+v, want empty", st)
	}
}
