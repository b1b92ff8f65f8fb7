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
// One hop touches one object. A message embeds its first packet and every
// packet embeds its head flit, so a single-flit message is one heap object,
// and the flit → packet → message chain a router follows never leaves it. Larger shapes add at most
// two blocks per message: one []Packet for packets after the first, and one
// []Flit holding every non-head flit of every packet, each packet's share
// contiguous. So a 1-packet message of n > 1 flits is two objects and any
// shape is at most three, whatever its flit count.
//
// Packets and flits are reached through accessors (Message.NumPackets,
// Message.Packet, Packet.Size, Packet.Flit, Packet.Head, Packet.Tail), not
// pointer slices, which would add slice headers and pointers for the
// collector to mark to every live message.
//
// Because packets and flits point into their own message, a Message or a
// Packet must never be copied by value; go vet's copylocks check enforces it.
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

// noCopy makes go vet's copylocks check reject copies of the structs that
// embed it: their embedded packets and flits point back into the original.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Message is an application-level unit of transfer between two terminals.
type Message struct {
	_ noCopy

	ID          uint64 // globally unique
	App         int    // application index within the workload
	Transaction uint64 // transaction grouping tag

	CreateTime  sim.Tick // when the application created the message
	InjectTime  sim.Tick // when the first flit entered the network
	ReceiveTime sim.Tick // when the last flit was delivered

	Sampled bool // flagged for statistics sampling
	OpCode  int  // application-specific operation code

	// RxRemaining counts the flits not yet delivered to the destination.
	// It is initialized to the total flit count and owned by the
	// ejection-side network interface during reassembly.
	RxRemaining int

	// Src and Dst sit next to packet 0, so a router reading Packet.Dst of a
	// head flit touches the cache lines it already holds for that flit.
	Src, Dst int // terminal IDs

	// first is packet 0; rest holds packets 1..n-1 (nil for one packet) and
	// body every packet's non-head flits (nil when every packet is one flit).
	first Packet
	rest  []Packet
	body  []Flit

	maxPkt int   // segmentation parameter, part of the pool bucket key
	pool   *Pool // owning pool; nil for unpooled messages
	// released guards against double Release. Snapshots hold live messages
	// only, so it is always false there.
	released bool

	// gen counts the block's lives: it is bumped on every (re)initialization
	// so verification layers can detect references into a recycled block (see
	// internal/verify's pool-aliasing sentinel). It records host-memory reuse,
	// not simulation state: a restored message starts at 1.
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

// alloc builds the packet and flit blocks the shape needs and the immutable
// identity fields (packet IDs, flit IDs, head/tail flags, back-pointers). It
// runs once per message shape; reuse only re-runs reset.
func (m *Message) alloc(totalFlits, maxPacketSize int) {
	numPackets := (totalFlits + maxPacketSize - 1) / maxPacketSize
	if numPackets > 1 {
		m.rest = make([]Packet, numPackets-1)
	}
	if totalFlits > numPackets {
		m.body = make([]Flit, totalFlits-numPackets)
	}
	m.maxPkt = maxPacketSize
	remaining := totalFlits
	base := 0
	for i := 0; i < numPackets; i++ {
		size := min(maxPacketSize, remaining)
		remaining -= size
		pkt := m.Packet(i)
		pkt.Msg = m
		pkt.ID = i
		pkt.body = m.body[base : base+size-1 : base+size-1]
		base += size - 1
		for f := 0; f < size; f++ {
			fl := pkt.Flit(f)
			fl.Pkt = pkt
			fl.ID = f
			fl.Head = f == 0
			fl.Tail = f == size-1
		}
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
	m.RxRemaining = m.TotalFlits()
	m.released = false
	for i := 0; i < m.NumPackets(); i++ {
		pkt := m.Packet(i)
		pkt.HopCount = 0
		pkt.NonMinimal = false
		pkt.Intermediate = -1
		pkt.InjectTime = 0
		pkt.ReceiveTime = 0
		pkt.Routing = RoutingScratch{}
		pkt.rxNext = 0
		pkt.head.reset()
	}
	for i := range m.body {
		m.body[i].reset()
	}
}

// TotalFlits returns the number of flits across all packets of the message:
// one head flit per packet plus the shared body block.
func (m *Message) TotalFlits() int { return m.NumPackets() + len(m.body) }

// NumPackets returns the number of packets the message is segmented into.
func (m *Message) NumPackets() int { return 1 + len(m.rest) }

// Packet returns the message's i-th packet, 0 <= i < NumPackets().
func (m *Message) Packet(i int) *Packet {
	if i == 0 {
		return &m.first
	}
	return &m.rest[i-1]
}

// Packet is the unit of routing: all flits of a packet follow the head flit's
// path. Packets carry the mutable routing state used by adaptive algorithms.
type Packet struct {
	_ noCopy

	Msg *Message
	ID  int // index within the message

	head Flit
	body []Flit // flits 1..Size()-1, a window of the message's body block

	HopCount     int  // router-to-router hops taken so far
	Intermediate int  // intermediate destination for non-minimal routing, -1 if none
	NonMinimal   bool // took a non-minimal route (Valiant/UGAL deroute)

	// Routing is fixed-size scratch storage owned by the routing algorithm
	// (e.g. dateline crossing flags, UGAL phase). Routers never interpret it.
	// It sits beside NonMinimal so the four bytes share one word.
	Routing RoutingScratch

	InjectTime  sim.Tick // head flit network entry
	ReceiveTime sim.Tick // tail flit delivery

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

// Dst returns the destination terminal of the packet's message.
func (p *Packet) Dst() int { return p.Msg.Dst }

// Size returns the number of flits in the packet.
func (p *Packet) Size() int { return 1 + len(p.body) }

// Flit returns the packet's i-th flit, 0 <= i < Size().
func (p *Packet) Flit(i int) *Flit {
	if i == 0 {
		return &p.head
	}
	return &p.body[i-1]
}

// Head returns the packet's head flit.
func (p *Packet) Head() *Flit { return &p.head }

// Tail returns the packet's tail flit.
func (p *Packet) Tail() *Flit {
	if len(p.body) == 0 {
		return &p.head
	}
	return &p.body[len(p.body)-1]
}

// Age returns the message creation time, used by age-based arbitration: the
// oldest packet (smallest value) has priority.
func (p *Packet) Age() sim.Tick { return p.Msg.CreateTime }

func (p *Packet) String() string {
	return fmt.Sprintf("packet[msg=%d pkt=%d src=%d dst=%d size=%d]",
		p.Msg.ID, p.ID, p.Msg.Src, p.Msg.Dst, p.Size())
}

// Flit is the unit of buffering and flow control. The head flit carries the
// routing responsibility; the tail flit releases held resources.
type Flit struct {
	Pkt  *Packet
	ID   int // index within the packet
	Head bool
	Tail bool
	// vfInFlight is vfGen's partner (see there); it sits beside the flags so
	// the three bools share one word.
	vfInFlight bool

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
	vfGen uint64
}

// reset restores the flit's per-life fields.
func (f *Flit) reset() {
	f.VC = -1
	f.SendTime = 0
	f.ReceiveTime = 0
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
