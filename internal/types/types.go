// Package types defines the units of network traffic — messages, packets,
// flits and credits — and the sink interfaces over which components exchange
// them.
//
// A message is the unit of transfer requested by an application. The network
// interface segments each message into one or more packets, and each packet
// into flits. A flit (flow control digit) is the smallest unit of resource
// allocation in a router: routers manage buffering, data flow and resource
// scheduling at flit granularity, which is why flit-level simulation is
// required to understand router microarchitecture behavior.
//
// # Memory layout
//
// A message's packets and flits are not individual heap objects: each message
// owns one contiguous []Packet block and one contiguous []Flit block, and the
// exported pointer slices (Message.Packets, Packet.Flits) are views into
// those blocks. Building a message therefore costs a constant number of
// allocations regardless of its flit count, and walking a packet's flits is a
// linear scan of adjacent memory.
//
// # Pooling and the message lifecycle
//
// Flit-level DES throughput is dominated by traffic-object churn, so the
// steady-state path recycles messages through a Pool instead of allocating:
//
//   - An application obtains a message from its workload's Pool
//     (Pool.NewMessage) and hands it to the network interface.
//   - The network delivers the flits; the ejection-side interface reassembles
//     the message and passes it to the workload's demultiplexer.
//   - After the owning application's DeliverMessage returns (statistics
//     recorded, no references retained), the workload calls Pool.Release and
//     the message's blocks go back on the free list.
//
// Ownership rules: Release is legal only once per delivery, only after every
// flit of the message has been delivered, and only by the releaser of record
// (the workload demux); components must not retain message, packet or flit
// pointers across delivery. A Pool is deliberately lock-free and
// single-threaded — it belongs to one Workload driven by one Simulator, the
// same ownership discipline as the simulator's event free list. Concurrent
// sweeps (internal/sweep, internal/taskrun) each build their own Simulation
// and therefore their own Pool, so no synchronization is needed or provided.
//
// Messages built with the package-level NewMessage are unpooled: they have no
// owning Pool, and Release on them is a no-op, which keeps tests and
// single-shot tools allocation-compatible with the pooled hot path.
package types

import (
	"fmt"

	"supersim/internal/sim"
)

// Message is an application-level unit of transfer between two terminals.
type Message struct {
	ID          uint64 // globally unique
	App         int    // application index within the workload
	Transaction uint64 // transaction grouping tag
	Src, Dst    int    // terminal IDs

	// Packets are views into the message's contiguous packet block.
	Packets []*Packet

	CreateTime  sim.Tick // when the application created the message
	InjectTime  sim.Tick // when the first flit entered the network
	ReceiveTime sim.Tick // when the last flit was delivered

	Sampled bool // flagged for statistics sampling
	OpCode  int  // application-specific operation code

	// RxRemaining counts the flits not yet delivered to the destination.
	// It is initialized to the total flit count and owned by the
	// ejection-side network interface during reassembly.
	RxRemaining int

	// Contiguous storage backing Packets and every Packet's Flits view.
	pktBlock  []Packet
	flitBlock []Flit
	flitPtrs  []*Flit

	maxPkt int   // segmentation parameter, part of the pool bucket key
	pool   *Pool // owning pool; nil for unpooled messages
	//sslint:nosnapshot — double-Release guard; snapshots hold live messages only, so it is always false
	released bool // guards against double Release

	// gen counts the message's lives: it is bumped on every (re)initialization
	// so verification layers can detect references into a recycled block (see
	// internal/verify's pool-aliasing sentinel).
	gen uint64
}

// Generation returns the message's life counter, bumped each time the
// message's blocks are (re)initialized. A component holding a flit whose
// message generation has changed is holding an aliased, recycled block.
func (m *Message) Generation() uint64 { return m.gen }

// NewMessage creates an unpooled message of totalFlits flits segmented into
// packets of at most maxPacketSize flits each. totalFlits and maxPacketSize
// must be positive. Hot paths should draw from a Pool instead.
func NewMessage(id uint64, app, src, dst int, totalFlits, maxPacketSize int) *Message {
	validateShape(id, totalFlits, maxPacketSize)
	m := &Message{}
	m.alloc(totalFlits, maxPacketSize)
	m.reset(id, app, src, dst)
	return m
}

func validateShape(id uint64, totalFlits, maxPacketSize int) {
	if totalFlits <= 0 {
		panic(fmt.Sprintf("types: message %d: totalFlits %d must be positive", id, totalFlits))
	}
	if maxPacketSize <= 0 {
		panic(fmt.Sprintf("types: message %d: maxPacketSize %d must be positive", id, maxPacketSize))
	}
}

// alloc builds the contiguous packet/flit blocks and the immutable identity
// fields (packet IDs, flit IDs, head/tail flags, back-pointers). It runs once
// per message shape; reuse only re-runs reset.
func (m *Message) alloc(totalFlits, maxPacketSize int) {
	numPackets := (totalFlits + maxPacketSize - 1) / maxPacketSize
	m.pktBlock = make([]Packet, numPackets)
	m.flitBlock = make([]Flit, totalFlits)
	m.flitPtrs = make([]*Flit, totalFlits)
	m.Packets = make([]*Packet, numPackets)
	m.maxPkt = maxPacketSize
	remaining := totalFlits
	base := 0
	for p := 0; p < numPackets; p++ {
		size := maxPacketSize
		if remaining < size {
			size = remaining
		}
		remaining -= size
		pkt := &m.pktBlock[p]
		pkt.Msg = m
		pkt.ID = p
		pkt.Flits = m.flitPtrs[base : base+size : base+size]
		for f := 0; f < size; f++ {
			fl := &m.flitBlock[base+f]
			fl.Pkt = pkt
			fl.ID = f
			fl.Head = f == 0
			fl.Tail = f == size-1
			m.flitPtrs[base+f] = fl
		}
		base += size
		m.Packets[p] = pkt
	}
}

// reset restores every mutable field to its initial value so a recycled
// message is indistinguishable from a freshly allocated one.
func (m *Message) reset(id uint64, app, src, dst int) {
	m.gen++
	m.ID = id
	m.App = app
	m.Transaction = 0
	m.Src = src
	m.Dst = dst
	m.CreateTime = 0
	m.InjectTime = 0
	m.ReceiveTime = 0
	m.Sampled = false
	m.OpCode = 0
	m.RxRemaining = len(m.flitBlock)
	m.released = false
	for i := range m.pktBlock {
		pkt := &m.pktBlock[i]
		pkt.HopCount = 0
		pkt.NonMinimal = false
		pkt.Intermediate = -1
		pkt.InjectTime = 0
		pkt.ReceiveTime = 0
		pkt.Routing = RoutingScratch{}
		pkt.rxNext = 0
	}
	for i := range m.flitBlock {
		fl := &m.flitBlock[i]
		fl.VC = -1
		fl.SendTime = 0
		fl.ReceiveTime = 0
	}
}

// TotalFlits returns the number of flits across all packets of the message.
func (m *Message) TotalFlits() int { return len(m.flitBlock) }

// Packet is the unit of routing: all flits of a packet follow the head flit's
// path. Packets carry the mutable routing state used by adaptive algorithms.
type Packet struct {
	Msg   *Message
	ID    int // index within the message
	Flits []*Flit

	HopCount     int  // router-to-router hops taken so far
	NonMinimal   bool // took a non-minimal route (Valiant/UGAL deroute)
	Intermediate int  // intermediate destination for non-minimal routing, -1 if none

	InjectTime  sim.Tick // head flit network entry
	ReceiveTime sim.Tick // tail flit delivery

	// Routing is fixed-size scratch storage owned by the routing algorithm
	// (e.g. dateline crossing flags, UGAL phase). Routers never interpret it.
	Routing RoutingScratch

	rxNext int // next expected flit ID at the destination (OrderChecker)
}

// RoutingScratch is per-packet scratch storage for routing algorithms. It is
// a small value struct rather than an `any` box so adaptive algorithms do not
// heap-allocate per routed packet. The fields are algorithm-defined; the
// framework only guarantees they are zeroed when a packet is (re)built.
type RoutingScratch struct {
	Valid    bool // the algorithm has initialized this scratch
	Phase    int8 // algorithm-defined phase counter (e.g. current DOR dimension)
	Dateline bool // dateline crossed / intermediate point passed
}

// Size returns the number of flits in the packet.
func (p *Packet) Size() int { return len(p.Flits) }

// Head returns the packet's head flit.
func (p *Packet) Head() *Flit { return p.Flits[0] }

// Tail returns the packet's tail flit.
func (p *Packet) Tail() *Flit { return p.Flits[len(p.Flits)-1] }

// Age returns the message creation time, used by age-based arbitration: the
// oldest packet (smallest value) has priority.
func (p *Packet) Age() sim.Tick { return p.Msg.CreateTime }

func (p *Packet) String() string {
	return fmt.Sprintf("packet[msg=%d pkt=%d src=%d dst=%d size=%d]",
		p.Msg.ID, p.ID, p.Msg.Src, p.Msg.Dst, len(p.Flits))
}

// Flit is the unit of buffering and flow control. The head flit carries the
// routing responsibility; the tail flit releases held resources.
type Flit struct {
	Pkt  *Packet
	ID   int // index within the packet
	Head bool
	Tail bool

	// VC is the virtual channel the flit currently occupies. It is rewritten
	// at each hop by the winning routing/VC-allocation decision.
	VC int

	SendTime    sim.Tick // last channel injection time
	ReceiveTime sim.Tick // last channel delivery time

	// vfGen and vfInFlight are the invariant-verification subsystem's
	// in-flight ledger, inlined into the flit so the ledger needs no shared
	// map: a map would be written by the injecting terminal while being read
	// at every channel hop, which under the parallel engine happens on
	// different shards. The fields are written only at injection/retirement
	// (terminal side); hops merely read them, and the engine's inbox
	// hand-off orders those reads after the injection write.
	vfGen      uint64
	vfInFlight bool
}

// VerifyMarkInFlight records the flit entering the network, stamping the
// owning message's generation. Owned by internal/verify.
func (f *Flit) VerifyMarkInFlight(gen uint64) {
	f.vfGen = gen
	f.vfInFlight = true
}

// VerifyClearInFlight records the flit retiring from the network. Owned by
// internal/verify.
func (f *Flit) VerifyClearInFlight() { f.vfInFlight = false }

// VerifyInFlight returns the message generation recorded at injection and
// whether the flit is currently marked in flight. Owned by internal/verify.
func (f *Flit) VerifyInFlight() (uint64, bool) { return f.vfGen, f.vfInFlight }

func (f *Flit) String() string {
	kind := "body"
	if f.Head && f.Tail {
		kind = "head+tail"
	} else if f.Head {
		kind = "head"
	} else if f.Tail {
		kind = "tail"
	}
	return fmt.Sprintf("flit[msg=%d pkt=%d id=%d %s vc=%d]",
		f.Pkt.Msg.ID, f.Pkt.ID, f.ID, kind, f.VC)
}

// Credit is the unit of credit-based flow control: one credit returns one
// flit slot in the upstream direction for a specific VC.
type Credit struct {
	VC int
}

// FlitSink receives flits. Routers and interfaces implement it for their
// input ports; channels deliver into it.
type FlitSink interface {
	// ReceiveFlit accepts a flit arriving on the given local port number.
	ReceiveFlit(port int, f *Flit)
}

// CreditSink receives credits flowing in the reverse direction of flits.
type CreditSink interface {
	// ReceiveCredit accepts a credit arriving for the given local port.
	ReceiveCredit(port int, c Credit)
}
