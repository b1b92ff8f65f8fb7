// Package netiface implements the network interface that connects one
// terminal (endpoint) to its router. The interface owns the injection side —
// segmenting messages into packets and flits, choosing an injection VC, and
// respecting credits and channel bandwidth — and the ejection side —
// verifying delivery order, returning credits, reassembling packets into
// messages and handing them to the terminal.
package netiface

import (
	"supersim/internal/channel"
	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
	"supersim/internal/verify"
)

const (
	evInject = iota
)

// MessageSink consumes fully delivered messages (the Terminal).
type MessageSink interface {
	DeliverMessage(m *types.Message)
}

// InjectionPolicy returns the set of VCs a packet may start on. Networks
// supply a policy consistent with their routing algorithm's VC discipline.
type InjectionPolicy func(pkt *types.Packet) []int

// Interface is the per-terminal network interface component.
type Interface struct {
	sim.ComponentBase
	arr       *channel.Line // arrivals from the ejection and injection-credit channels
	id        int
	vcs       int
	chanClock *sim.Clock

	outCh     *channel.Channel       // to the router input port
	creditOut *channel.CreditChannel // credits back to the router for ejected flits
	downCred  []int                  // per VC credits at the router input buffer
	credInit  int                    // initial per-VC credit count
	policy    InjectionPolicy

	// sendQ is the FIFO of packets awaiting injection; its buffer is reused
	// across the run, so the injection path does not allocate per packet.
	sendQ     sim.FIFO[*types.Packet]
	curFlit   int // next flit index of the head packet
	curVC     int // VC the head packet is locked to, -1 before head
	injectRR  int // rotation for VC choice ties
	scheduled bool

	checker *types.OrderChecker
	sink    MessageSink
	partial int // messages with some but not all flits delivered

	// invariant verification, nil unless attached to the simulator
	v       *verify.Verifier
	credLed *verify.CreditLedger // mirrors downCred; rebuilt from it on restore

	// telemetry probe and span recorder, nil unless attached to the simulator
	tp *telemetry.IfaceProbe
	sp *telemetry.Spans

	// statistics
	flitsSent, flitsReceived uint64
}

// New creates an interface for terminal id. vcs is the VC count of the
// attached network; policy yields legal injection VCs per packet.
func New(s *sim.Simulator, name string, id int, cfg *config.Settings, vcs int, chanPeriod sim.Tick, policy InjectionPolicy) *Interface {
	if vcs <= 0 {
		panic("netiface: vcs must be positive")
	}
	if policy == nil {
		panic("netiface: injection policy required")
	}
	cb := sim.NewComponentBase(s, name)
	n := &Interface{
		ComponentBase: cb,
		// The arrival line takes the next construction-order key, right
		// after the interface's: see channel.Line.
		arr:       channel.NewLine(s, name+".arrivals", 2),
		id:        id,
		vcs:       vcs,
		chanClock: sim.NewClock(chanPeriod),
		downCred:  make([]int, vcs),
		policy:    policy,
		curVC:     -1,
		checker:   types.NewOrderChecker(id),
		v:         verify.For(s),
		tp:        telemetry.ForIface(s, name),
		sp:        telemetry.SpansFor(s),
	}
	n.arr.Bind(n)
	return n
}

// Arrivals returns the interface's arrival line, which its ejection and
// injection-credit channels feed.
func (n *Interface) Arrivals() *channel.Line { return n.arr }

// ID returns the terminal ID this interface serves.
func (n *Interface) ID() int { return n.id }

// SetMessageSink registers the consumer of delivered messages.
func (n *Interface) SetMessageSink(sink MessageSink) { n.sink = sink }

// ConnectOutput wires the flit channel toward the router.
func (n *Interface) ConnectOutput(ch *channel.Channel) { n.outCh = ch }

// ConnectCreditOut wires the credit channel that returns ejection credits to
// the router.
func (n *Interface) ConnectCreditOut(cc *channel.CreditChannel) { n.creditOut = cc }

// SetDownstreamCredits initializes the per-VC credit pool for the router's
// input buffer.
func (n *Interface) SetDownstreamCredits(perVC int) {
	if perVC <= 0 {
		n.Panicf("downstream credits must be positive")
	}
	n.credInit = perVC
	for vc := range n.downCred {
		n.downCred[vc] = perVC
	}
	n.credLed = n.v.NewCreditLedger(n.Name(), ".inject", n.vcs, perVC)
}

// VerifyIdle panics unless the interface is quiescent: nothing queued for
// injection, all router input buffer credits returned, and no partially
// received messages. The framework calls it after the network drains.
func (n *Interface) VerifyIdle() {
	if n.QueueDepth() != 0 {
		n.Panicf("idle check: %d packets still queued for injection", n.QueueDepth())
	}
	for vc, c := range n.downCred {
		if c != n.credInit {
			n.Panicf("idle check: vc %d holds %d of %d injection credits", vc, c, n.credInit)
		}
	}
	if n.checker.Outstanding() != 0 {
		n.Panicf("idle check: %d packets partially delivered", n.checker.Outstanding())
	}
	if n.partial != 0 {
		n.Panicf("idle check: %d messages partially reassembled", n.partial)
	}
}

// QueueDepth returns the number of packets waiting for injection — the
// source queue. Sustained growth indicates the network is saturated at this
// terminal's injection rate.
func (n *Interface) QueueDepth() int { return n.sendQ.Len() }

// FlitsSent returns the number of flits injected into the network.
func (n *Interface) FlitsSent() uint64 { return n.flitsSent }

// FlitsReceived returns the number of flits ejected from the network.
func (n *Interface) FlitsReceived() uint64 { return n.flitsReceived }

// SendMessage queues a message's packets for injection. The message must
// originate at this terminal.
func (n *Interface) SendMessage(m *types.Message) {
	if int(m.Src) != n.id {
		n.Panicf("message %d src %d sent from terminal %d", m.ID, m.Src, n.id)
	}
	if m.Dst() == n.id {
		n.Panicf("message %d targets its own source terminal", m.ID)
	}
	n.sp.Start(m)
	for i := 0; i < m.NumPackets(); i++ {
		n.sendQ.Push(m.Packet(i))
	}
	n.tp.QueueDepth(n.QueueDepth())
	n.scheduleInject()
}

func (n *Interface) scheduleInject() {
	if n.scheduled || n.QueueDepth() == 0 {
		return
	}
	now := n.Sim().Now()
	t := sim.Time{Tick: n.chanClock.NextEdge(now.Tick), Eps: 1}
	if !now.Before(t) {
		t = sim.Time{Tick: n.chanClock.NextEdge(now.Tick + 1), Eps: 1}
	}
	n.scheduled = true
	n.Sim().Schedule(n, t, evInject, nil)
}

// ProcessEvent runs the injection pipeline.
func (n *Interface) ProcessEvent(ev *sim.Event) {
	if ev.Type != evInject {
		n.Panicf("unknown event type %d", ev.Type)
	}
	n.scheduled = false
	n.injectOne()
	if n.QueueDepth() > 0 {
		// Remain scheduled while credits allow progress; if blocked, the
		// next credit arrival reschedules.
		if n.headSendable() {
			n.scheduleInject()
		}
	}
}

// headSendable reports whether the head packet's next flit has a usable VC
// credit right now.
func (n *Interface) headSendable() bool {
	if n.QueueDepth() == 0 {
		return false
	}
	if n.curVC >= 0 {
		return n.downCred[n.curVC] > 0
	}
	for _, vc := range n.policy(*n.sendQ.Front()) {
		if n.downCred[vc] > 0 {
			return true
		}
	}
	return false
}

func (n *Interface) injectOne() {
	if n.QueueDepth() == 0 {
		return
	}
	pkt := *n.sendQ.Front()
	f := pkt.Flit(n.curFlit)
	if f.Head && n.curVC < 0 {
		// Choose an injection VC: among the policy's legal VCs with credit,
		// take the one with the most credits, rotating ties.
		cands := n.policy(pkt)
		if len(cands) == 0 {
			n.Panicf("injection policy returned no VCs for %v", pkt)
		}
		best := -1
		for i := 0; i < len(cands); i++ {
			vc := cands[(n.injectRR+i)%len(cands)]
			if vc < 0 || vc >= n.vcs {
				n.Panicf("injection policy uses unregistered VC %d", vc)
			}
			if n.downCred[vc] > 0 && (best < 0 || n.downCred[vc] > n.downCred[best]) {
				best = vc
			}
		}
		if best < 0 {
			n.tp.Backpressure()
			return // no credits on any legal VC; wait for credit arrival
		}
		n.injectRR++
		n.curVC = best
	}
	if n.curVC < 0 || n.downCred[n.curVC] < 1 {
		n.tp.Backpressure()
		return // credit stall mid-packet
	}
	if !n.outCh.Available(n.Sim().Now().Tick) {
		return // channel busy this cycle (should not happen at edge pacing)
	}
	now := n.Sim().Now().Tick
	n.downCred[n.curVC]--
	// Register the flit in the in-flight ledger before the channel's touch
	// check sees it, then cross-check the credit mirror.
	n.v.FlitInjected(f)
	n.credLed.Debit(n.curVC, n.downCred[n.curVC])
	if f.Head {
		pkt.InjectTime = now
	}
	if n.sp.Tracked(f) {
		// Creation to injection-channel entry is source queueing: the wait
		// behind earlier packets plus credit backpressure.
		n.sp.Step(now, f, telemetry.SpanQueue)
	}
	n.outCh.Inject(f, n.curVC)
	n.flitsSent++
	n.tp.FlitSent()
	if f.Tail {
		n.popPacket()
		n.curFlit = 0
		n.curVC = -1
	} else {
		n.curFlit++
	}
}

// popPacket dequeues the head packet.
func (n *Interface) popPacket() {
	n.sendQ.Pop()
	n.tp.QueueDepth(n.QueueDepth())
}

// ReceiveFlit ejects a flit from the network: the delivery checks run, the
// credit returns to the router on the flit's VC, and completed messages go
// to the sink.
func (n *Interface) ReceiveFlit(port, vc int, f *types.Flit) {
	now := n.Sim().Now().Tick
	n.flitsReceived++
	n.tp.FlitReceived()
	n.v.FlitRetired(f)
	packetDone := n.checker.Check(f)
	n.creditOut.Inject(types.Credit{VC: vc})
	// The reassembly countdown lives in the message (initialized to the flit
	// count at construction) instead of an interface-side map; only the count
	// of partially received messages is tracked here, for VerifyIdle.
	m := f.Pkt.Msg
	if int(m.RxRemaining) == m.TotalFlits() {
		n.partial++ // first flit of a message seen at the receiver
	}
	m.RxRemaining--
	if packetDone {
		f.Pkt.ReceiveTime = now
	}
	if m.RxRemaining == 0 {
		n.partial--
		m.ReceiveTime = now
		if n.sink == nil {
			n.Panicf("message delivered but no sink registered")
		}
		n.sink.DeliverMessage(m)
	}
}

// HeadPacket returns the packet at the head of the injection queue, or nil
// when the queue is empty. The stall diagnostician uses it to name the
// message a blocked terminal is trying to send.
func (n *Interface) HeadPacket() *types.Packet {
	if n.QueueDepth() == 0 {
		return nil
	}
	return *n.sendQ.Front()
}

// InjectionCredits returns a copy of the per-VC credit counts for the
// router's input buffer.
func (n *Interface) InjectionCredits() []int {
	out := make([]int, len(n.downCred))
	copy(out, n.downCred)
	return out
}

// OutputChannel returns the flit channel toward the router.
func (n *Interface) OutputChannel() *channel.Channel { return n.outCh }

// ReceiveCredit restores an injection credit for a VC.
func (n *Interface) ReceiveCredit(port int, c types.Credit) {
	if c.VC < 0 || c.VC >= n.vcs {
		n.Panicf("credit for unregistered VC %d", c.VC)
	}
	n.downCred[c.VC]++
	n.credLed.Credit(c.VC, n.downCred[c.VC])
	n.scheduleInject()
}
