package netiface

import (
	"testing"

	"supersim/internal/channel"
	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/types"
)

// routerStub collects flits arriving from the interface and can return
// credits like a router input buffer would.
type routerStub struct {
	s       *sim.Simulator
	flits   []*types.Flit
	vcs     []int
	times   []sim.Tick
	credits []types.Credit         // ejection credits from the interface
	creditC *channel.CreditChannel // back to the interface
	auto    bool                   // return a credit immediately on arrival
	line    *channel.Line
}

func (r *routerStub) ReceiveFlit(port, vc int, f *types.Flit) {
	r.flits = append(r.flits, f)
	r.vcs = append(r.vcs, vc)
	r.times = append(r.times, r.s.Now().Tick)
	if r.auto {
		r.creditC.Inject(types.Credit{VC: vc})
	}
}

func (r *routerStub) ReceiveCredit(port int, c types.Credit) { r.credits = append(r.credits, c) }

func (r *routerStub) Arrivals() *channel.Line {
	if r.line == nil {
		r.line = channel.NewLine(r.s, "router", 2)
		r.line.Bind(r)
	}
	return r.line
}

// msgSink collects delivered messages.
type msgSink struct{ msgs []*types.Message }

func (m *msgSink) DeliverMessage(msg *types.Message) { m.msgs = append(m.msgs, msg) }

// rig builds an interface wired to a router stub with the given credit count.
func rig(t *testing.T, vcs, credits int, policy InjectionPolicy) (*sim.Simulator, *Interface, *routerStub, *msgSink) {
	t.Helper()
	s := sim.NewSimulator(1)
	if policy == nil {
		all := make([]int, vcs)
		for i := range all {
			all[i] = i
		}
		policy = func(pkt *types.Packet) []int { return all }
	}
	n := New(s, "iface", 0, config.New(), vcs, 2 /* chanPeriod */, policy)
	stub := &routerStub{s: s}
	out := channel.New(s, "inj", 3, 2)
	out.SetSink(stub, 0)
	n.ConnectOutput(out)
	cc := channel.NewCredit(s, "cr", 3)
	cc.SetSink(n, 0)
	stub.creditC = cc
	ej := channel.NewCredit(s, "ej", 3)
	ej.SetSink(stub, 0)
	n.ConnectCreditOut(ej)
	n.SetDownstreamCredits(credits)
	sink := &msgSink{}
	n.SetMessageSink(sink)
	return s, n, stub, sink
}

func msg(id uint64, src, dst, flits, maxPkt int) *types.Message {
	return types.NewMessage(id, 0, src, dst, flits, maxPkt)
}

func TestInjectSingleFlitMessage(t *testing.T) {
	s, n, stub, _ := rig(t, 2, 4, nil)
	m := msg(1, 0, 5, 1, 1)
	m.CreateTime = 0
	n.SendMessage(m)
	s.Run()
	if len(stub.flits) != 1 {
		t.Fatalf("router got %d flits", len(stub.flits))
	}
	if stub.vcs[0] < 0 || stub.vcs[0] > 1 {
		t.Fatalf("flit sent on VC %d", stub.vcs[0])
	}
	if inj := m.Packet(0).InjectTime; inj+3 != stub.times[0] {
		t.Fatalf("inject time %d inconsistent with arrival %d (latency 3)",
			inj, stub.times[0])
	}
	if n.FlitsSent() != 1 {
		t.Fatal("FlitsSent")
	}
}

func TestInjectionPacedByChannelPeriod(t *testing.T) {
	s, n, stub, _ := rig(t, 1, 16, nil)
	n.SendMessage(msg(1, 0, 5, 4, 4))
	s.Run()
	if len(stub.flits) != 4 {
		t.Fatalf("got %d flits", len(stub.flits))
	}
	for i := 1; i < 4; i++ {
		if stub.times[i]-stub.times[i-1] != 2 {
			t.Fatalf("flit spacing %d, want channel period 2", stub.times[i]-stub.times[i-1])
		}
	}
}

func TestInjectionRespectsCredits(t *testing.T) {
	// Only 2 credits and no returns: injection must stall after 2 flits.
	s, n, stub, _ := rig(t, 1, 2, nil)
	n.SendMessage(msg(1, 0, 5, 4, 4))
	s.Run()
	if len(stub.flits) != 2 {
		t.Fatalf("sent %d flits with 2 credits", len(stub.flits))
	}
	if n.QueueDepth() != 1 {
		t.Fatalf("queue depth %d", n.QueueDepth())
	}
	// Returning credits resumes the stream.
	stub.creditC.Inject(types.Credit{VC: 0})
	stub.creditC.Inject(types.Credit{VC: 0})
	s.Run()
	if len(stub.flits) != 4 {
		t.Fatalf("sent %d flits after credit return", len(stub.flits))
	}
}

func TestInjectionCreditLoopSustains(t *testing.T) {
	s, n, stub, _ := rig(t, 1, 2, nil)
	stub.auto = true // stub returns credits like a draining router
	n.SendMessage(msg(1, 0, 5, 32, 32))
	s.Run()
	if len(stub.flits) != 32 {
		t.Fatalf("credit loop delivered %d flits", len(stub.flits))
	}
}

func TestInjectionPolicyRestrictsVCs(t *testing.T) {
	s, n, stub, _ := rig(t, 4, 8, func(pkt *types.Packet) []int { return []int{2} })
	n.SendMessage(msg(1, 0, 5, 2, 2))
	s.Run()
	for _, vc := range stub.vcs {
		if vc != 2 {
			t.Fatalf("flit on VC %d, policy allows only 2", vc)
		}
	}
}

func TestPacketLockedToOneVC(t *testing.T) {
	s, n, stub, _ := rig(t, 4, 8, nil)
	n.SendMessage(msg(1, 0, 5, 6, 6))
	s.Run()
	for _, vc := range stub.vcs {
		if vc != stub.vcs[0] {
			t.Fatal("packet flits switched VCs mid-flight")
		}
	}
}

func TestSendMessageValidation(t *testing.T) {
	_, n, _, _ := rig(t, 1, 4, nil)
	mustPanic(t, func() { n.SendMessage(msg(1, 3, 5, 1, 1)) }) // wrong src
	mustPanic(t, func() { n.SendMessage(msg(1, 0, 0, 1, 1)) }) // self send
}

func TestEjectDeliversAndReturnsCredits(t *testing.T) {
	s, n, stub, sink := rig(t, 2, 4, nil)
	m := types.NewMessage(9, 0, 7, 0, 3, 3) // dst is this interface (id 0)
	for fi := 0; fi < m.Packet(0).Size(); fi++ {
		n.ReceiveFlit(0, 1, m.Packet(0).Flit(fi))
	}
	s.Run()
	if len(sink.msgs) != 1 || sink.msgs[0] != m {
		t.Fatal("message not delivered to sink")
	}
	if m.ReceiveTime != 0 {
		t.Fatalf("receive time %d, want 0 (flits delivered at tick 0)", m.ReceiveTime)
	}
	if n.FlitsReceived() != 3 {
		t.Fatalf("FlitsReceived = %d", n.FlitsReceived())
	}
	// One eject credit per flit reached the router stub, on the VC the
	// flit arrived on.
	if len(stub.credits) != 3 {
		t.Fatalf("router got %d eject credits, want 3", len(stub.credits))
	}
	for _, c := range stub.credits {
		if c.VC != 1 {
			t.Fatalf("eject credit on VC %d, flits arrived on 1", c.VC)
		}
	}
}

func TestEjectOutOfOrderPanics(t *testing.T) {
	_, n, _, _ := rig(t, 1, 4, nil)
	m := types.NewMessage(9, 0, 7, 0, 2, 2)
	mustPanic(t, func() { n.ReceiveFlit(0, 0, m.Packet(0).Flit(1)) })
}

func TestEjectWrongDestinationPanics(t *testing.T) {
	_, n, _, _ := rig(t, 1, 4, nil)
	m := types.NewMessage(9, 0, 7, 3, 1, 1) // dst 3, interface is 0
	mustPanic(t, func() { n.ReceiveFlit(0, 0, m.Packet(0).Flit(0)) })
}

func TestMultiPacketMessageReassembly(t *testing.T) {
	s, n, _, sink := rig(t, 1, 4, nil)
	m := types.NewMessage(9, 0, 7, 0, 8, 3) // 3 packets: 3+3+2
	for pi := 0; pi < m.NumPackets(); pi++ {
		p := m.Packet(pi)
		for fi := 0; fi < p.Size(); fi++ {
			n.ReceiveFlit(0, 0, p.Flit(fi))
		}
	}
	s.Run()
	if len(sink.msgs) != 1 {
		t.Fatal("multi-packet message not reassembled")
	}
	if n.QueueDepth() != 0 {
		t.Fatal("queue depth should be zero")
	}
}

func TestConstructorValidation(t *testing.T) {
	s := sim.NewSimulator(1)
	pol := func(pkt *types.Packet) []int { return []int{0} }
	mustPanic(t, func() { New(s, "x", 0, config.New(), 0, 1, pol) })
	mustPanic(t, func() { New(s, "x", 0, config.New(), 1, 1, nil) })
	n := New(s, "x", 0, config.New(), 1, 1, pol)
	mustPanic(t, func() { n.SetDownstreamCredits(0) })
	mustPanic(t, func() { n.ReceiveCredit(0, types.Credit{VC: 5}) })
}

func TestBadPolicyCaught(t *testing.T) {
	s, n, _, _ := rig(t, 2, 4, func(pkt *types.Packet) []int { return []int{7} })
	n.SendMessage(msg(1, 0, 5, 1, 1))
	panicked := false
	func() {
		defer func() { panicked = recover() != nil }()
		s.Run()
	}()
	if !panicked {
		t.Fatal("unregistered VC from policy must panic")
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestVerifyIdleCleanAfterDrain(t *testing.T) {
	s, n, stub, _ := rig(t, 1, 2, nil)
	stub.auto = true
	n.SendMessage(msg(1, 0, 5, 5, 5))
	s.Run()
	n.VerifyIdle() // must not panic
}

func TestVerifyIdleDetectsQueuedPackets(t *testing.T) {
	_, n, _, _ := rig(t, 1, 1, nil)
	n.SendMessage(msg(1, 0, 5, 4, 4)) // credits too low to drain without returns
	mustPanic(t, func() { n.VerifyIdle() })
}

func TestVerifyIdleDetectsMissingCredits(t *testing.T) {
	s, n, _, _ := rig(t, 1, 4, nil) // stub does NOT auto-return credits
	n.SendMessage(msg(1, 0, 5, 2, 2))
	s.Run()
	mustPanic(t, func() { n.VerifyIdle() }) // two credits still downstream
}

func TestVerifyIdleDetectsPartialMessage(t *testing.T) {
	s, n, _, _ := rig(t, 1, 4, nil)
	m := types.NewMessage(9, 0, 7, 0, 3, 3)
	n.ReceiveFlit(0, 0, m.Packet(0).Flit(0)) // only 1 of 3 flits arrives
	s.Run()
	mustPanic(t, func() { n.VerifyIdle() })
}

func TestInspectionAccessors(t *testing.T) {
	s, n, _, _ := rig(t, 2, 3, nil)
	if n.OutputChannel() == nil {
		t.Fatal("OutputChannel is nil on a connected interface")
	}
	if n.HeadPacket() != nil {
		t.Fatal("HeadPacket non-nil on an idle interface")
	}
	creds := n.InjectionCredits()
	if len(creds) != 2 || creds[0] != 3 || creds[1] != 3 {
		t.Fatalf("InjectionCredits = %v, want [3 3]", creds)
	}
	creds[0] = -99 // the returned slice must be a copy
	if n.InjectionCredits()[0] != 3 {
		t.Fatal("InjectionCredits aliases internal state")
	}

	m := msg(1, 0, 5, 4, 2)
	n.SendMessage(m)
	if hp := n.HeadPacket(); hp == nil || hp.Msg != m || hp.ID != 0 {
		t.Fatalf("HeadPacket = %v, want packet 0 of the queued message", hp)
	}
	s.Run()
	if n.HeadPacket() != nil {
		t.Fatal("HeadPacket non-nil after the queue drained")
	}
	if got := n.InjectionCredits(); got[0]+got[1] != 2 {
		// 4 flits debited from 6 total credits, none returned by the stub
		t.Fatalf("InjectionCredits = %v after sending 4 flits, want 2 remaining in total", got)
	}
}
