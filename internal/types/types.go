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
// and the flit → packet → message chain a router follows never leaves it.
// A message of more flits adds one shape block, which holds the packets
// after the first (each beside its times), a []Flit holding every non-head
// flit of every packet, each packet's share contiguous, and packet 0's
// times. So a 1-packet message of n > 1 flits is three objects (message,
// shape, body flits) and a multi-packet one four (also the later packets),
// whatever its flit count. Routers hold *Flit, so body flits and later
// packets are looked up only at injection and ejection, never per hop.
//
// Packets and flits are reached through accessors (Message.NumPackets,
// Message.Packet, Packet.Size, Packet.Flit, Packet.Head, Packet.Tail), not
// pointer slices, which would add slice headers and pointers for the
// collector to mark to every live message. A packet's share of the body
// block is an (offset, length) window into it, not a slice.
//
// Because packets and flits point into their own message, a Message or a
// Packet must never be copied by value; go vet's copylocks check enforces it.
//
// Every live single-flit message is one Message, so its size is the
// simulator's memory per in-flight flit: 128 bytes (Flit 24, Packet 64),
// the header on one 64-byte line and packet 0, everything a router hop
// reads, on the other. Fields whose range the configuration bounds
// (terminal, application and VC numbers, flit and packet counts, hop
// counts) are int32, and the accessors that routing code reads (Packet.Dst,
// Packet.Size) return int. A flit carries no per-hop timestamps and a
// message no injection time, since no component read them. Packet times
// (PacketTimes: entry and delivery) live in the shape block and only a
// multi-packet message has them: they feed Blast's per-packet samples,
// which only such messages produce. TestTrafficObjectSizes pins the three
// sizes and TestFreshMessageHeapBytes the allocator's size class.
//
// # The span slot
//
// A flit has one field that is not simulation state: the span recorder's
// slot (Flit.Span, Flit.SetSpan). internal/telemetry writes slot+1 into
// packet 0's head flit of each message it samples when the span opens, and
// clears it when the span closes, so "is this flit tracked?" is a read of
// the line a router hop already holds and the recorder finds the open span
// by index, not by message ID. It sits in the flit's padding, so Flit stays
// 24 bytes. Checkpoints do not code it: a restoring walk links each open
// span back to its message's head flit. reset clears it, so a recycled
// message starts untracked.
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
	"math"

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

	ID uint64 // globally unique

	CreateTime  sim.Tick // when the application created the message
	ReceiveTime sim.Tick // when the last flit was delivered

	App int32 // application index within the workload

	// RxRemaining counts the flits not yet delivered to the destination.
	// It is initialized to the total flit count and owned by the
	// ejection-side network interface during reassembly.
	RxRemaining int32

	// Src is the source terminal. The destination is a packet field (see
	// Dst): a router hop on a single-flit message reads one 64-byte line of
	// it, packet 0's, which holds the head flit, the routing state and the
	// destination. Objects of the 128-byte size class start on a line
	// boundary, and the header before packet 0 fills the first line.
	Src int32

	// gen counts the block's lives: it is bumped on every (re)initialization
	// so verification layers can detect references into a recycled block (see
	// internal/verify's pool-aliasing sentinel). It records host-memory reuse,
	// not simulation state: a restored message starts at 1.
	gen uint32
	// pool is the owning Pool's id; 0 for unpooled messages.
	pool uint32

	Sampled bool // flagged for statistics sampling
	// released guards against double Release. Snapshots hold live messages
	// only, so it is always false there.
	released bool

	// flits and packets are the shape's counts, kept in the header so that
	// counting never reads the shape block.
	flits, packets int32

	// shape holds what a message of more than one flit adds to its header
	// and packet 0: later packets, body flits and packet times. nil for a
	// single-flit message.
	shape *shape

	first Packet // packet 0, on the object's second 64-byte line
}

// shape is a multi-flit message's second block. rest holds packets 1..n-1
// (nil for one packet), each beside its times, and body every packet's
// non-head flits (nil when every packet is one flit), each packet's share
// contiguous. times0 is packet 0's times when rest is non-nil.
type shape struct {
	rest   []laterPacket
	body   []Flit
	times0 PacketTimes
}

// laterPacket is a packet after the first with its times.
type laterPacket struct {
	Packet
	times PacketTimes
}

// PacketTimes are a packet's network entry tick (its head flit's injection)
// and delivery tick (its tail flit's ejection). Only multi-packet messages
// keep them: the one packet of any other message is delivered at the
// message's ReceiveTime, and nothing reads its entry tick.
type PacketTimes struct {
	Inject, Receive sim.Tick
}

// Generation returns the message's life counter, bumped each time the
// message's blocks are (re)initialized. A component holding a flit whose
// message generation has changed is holding an aliased, recycled block.
func (m *Message) Generation() uint32 { return m.gen }

// NewMessage creates an unpooled message of totalFlits flits segmented into
// packets of at most maxPacketSize flits each. totalFlits and maxPacketSize
// must be positive. Hot paths should draw from a Pool instead.
func NewMessage(id uint64, app, src, dst int, totalFlits, maxPacketSize int) *Message {
	validateShape(id, app, src, dst, totalFlits, maxPacketSize)
	m := &Message{}
	m.alloc(totalFlits, maxPacketSize)
	m.reset(id, app, src, dst)
	return m
}

// validateShape rejects what the message cannot hold: a non-positive shape,
// and an application, terminal or flit count beyond the int32 fields.
func validateShape(id uint64, app, src, dst, totalFlits, maxPacketSize int) {
	if totalFlits <= 0 || totalFlits > math.MaxInt32 {
		panic(fmt.Sprintf("types: message %d: totalFlits %d must be in [1, %d]", id, totalFlits, math.MaxInt32))
	}
	if maxPacketSize <= 0 {
		panic(fmt.Sprintf("types: message %d: maxPacketSize %d must be positive", id, maxPacketSize))
	}
	if int(int32(app)) != app || int(int32(src)) != src || int(int32(dst)) != dst {
		panic(fmt.Sprintf("types: message %d: app %d, src %d or dst %d overflows int32", id, app, src, dst))
	}
}

// alloc builds the packet and flit blocks the shape needs and the immutable
// identity fields (packet IDs, flit IDs, head/tail flags, back-pointers,
// body windows). It runs once per message shape; reuse only re-runs reset.
func (m *Message) alloc(totalFlits, maxPacketSize int) {
	numPackets := (totalFlits + maxPacketSize - 1) / maxPacketSize
	m.flits, m.packets = int32(totalFlits), int32(numPackets)
	if totalFlits > 1 {
		m.shape = &shape{}
	}
	if numPackets > 1 {
		m.shape.rest = make([]laterPacket, numPackets-1)
	}
	if totalFlits > numPackets {
		m.shape.body = make([]Flit, totalFlits-numPackets)
	}
	remaining := totalFlits
	base := 0
	for i := 0; i < numPackets; i++ {
		size := min(maxPacketSize, remaining)
		remaining -= size
		pkt := m.Packet(i)
		pkt.Msg = m
		pkt.ID = int32(i)
		pkt.bodyOff, pkt.bodyLen = int32(base), int32(size-1)
		base += size - 1
		for f := 0; f < size; f++ {
			fl := pkt.Flit(f)
			fl.Pkt = pkt
			fl.ID = int32(f)
			fl.Head = f == 0
			fl.Tail = f == size-1
		}
	}
}

// reset restores every mutable field to its initial value so a recycled
// message is indistinguishable from a freshly allocated one. validateShape
// has range-checked app, src and dst.
func (m *Message) reset(id uint64, app, src, dst int) {
	m.gen++
	m.ID = id
	m.App = int32(app)
	m.Src = int32(src)
	m.CreateTime = 0
	m.ReceiveTime = 0
	m.Sampled = false
	m.RxRemaining = int32(m.TotalFlits())
	m.released = false
	for i := 0; i < m.NumPackets(); i++ {
		pkt := m.Packet(i)
		pkt.HopCount = 0
		pkt.NonMinimal = false
		pkt.Intermediate = -1
		if t := pkt.Times(); t != nil {
			*t = PacketTimes{}
		}
		pkt.Routing = RoutingScratch{}
		pkt.rxNext = 0
		pkt.dst = int32(dst)
		pkt.head.span = 0
	}
}

// TotalFlits returns the number of flits across all packets of the message.
func (m *Message) TotalFlits() int { return int(m.flits) }

// NumPackets returns the number of packets the message is segmented into.
func (m *Message) NumPackets() int { return int(m.packets) }

// maxPkt returns the message's packet size cap as its shape shows it: the
// first packet's size, which every packet but the last shares. A cap beyond
// the flit count builds the same shape as the flit count itself, so this is
// all of the cap that is state.
func (m *Message) maxPkt() int { return m.first.Size() }

// Dst returns the message's destination terminal, which every packet holds.
func (m *Message) Dst() int { return int(m.first.dst) }

// Packet returns the message's i-th packet, 0 <= i < NumPackets().
func (m *Message) Packet(i int) *Packet {
	if i == 0 {
		return &m.first
	}
	return &m.shape.rest[i-1].Packet
}

// Packet is the unit of routing: all flits of a packet follow the head flit's
// path. Packets carry the mutable routing state used by adaptive algorithms.
type Packet struct {
	_ noCopy

	Msg  *Message
	head Flit

	ID           int32 // index within the message
	HopCount     int32 // router-to-router hops taken so far
	Intermediate int32 // intermediate destination for non-minimal routing, -1 if none

	// bodyOff and bodyLen window flits 1..Size()-1 in the message's body
	// block.
	bodyOff, bodyLen int32

	rxNext int32 // next expected flit ID at the destination (OrderChecker)

	NonMinimal bool // took a non-minimal route (Valiant/UGAL deroute)

	// Routing is fixed-size scratch storage owned by the routing algorithm
	// (e.g. dateline crossing flags, UGAL phase). Routers never interpret it.
	// It sits beside NonMinimal so the four bytes share one word.
	Routing RoutingScratch

	// dst is the destination terminal. Every packet holds it, so routing
	// reads it from the line that holds the packet's head flit, never from
	// the message header; reset and checkpoint loading set every packet's.
	dst int32
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
func (p *Packet) Dst() int { return int(p.dst) }

// Size returns the number of flits in the packet.
func (p *Packet) Size() int { return 1 + int(p.bodyLen) }

// Flit returns the packet's i-th flit, 0 <= i < Size().
func (p *Packet) Flit(i int) *Flit {
	if i == 0 {
		return &p.head
	}
	return &p.body()[i-1]
}

// body returns the packet's window of the message's body block.
func (p *Packet) body() []Flit { return p.Msg.shape.body[p.bodyOff : p.bodyOff+p.bodyLen] }

// Times returns the packet's times, or nil when its message is one packet
// (see PacketTimes).
func (p *Packet) Times() *PacketTimes {
	s := p.Msg.shape
	switch {
	case s == nil || s.rest == nil:
		return nil
	case p.ID == 0:
		return &s.times0
	}
	return &s.rest[p.ID-1].times
}

// Head returns the packet's head flit.
func (p *Packet) Head() *Flit { return &p.head }

// Tail returns the packet's tail flit.
func (p *Packet) Tail() *Flit {
	if p.bodyLen == 0 {
		return &p.head
	}
	return &p.Msg.shape.body[p.bodyOff+p.bodyLen-1]
}

// Age returns the message creation time, used by age-based arbitration: the
// oldest packet (smallest value) has priority.
func (p *Packet) Age() sim.Tick { return p.Msg.CreateTime }

func (p *Packet) String() string {
	return fmt.Sprintf("packet[msg=%d pkt=%d src=%d dst=%d size=%d]",
		p.Msg.ID, p.ID, p.Msg.Src, p.dst, p.Size())
}

// Flit is the unit of buffering and flow control. The head flit carries the
// routing responsibility; the tail flit releases held resources.
type Flit struct {
	Pkt *Packet
	ID  int32 // index within the packet

	// A flit does not hold its VC: the VC is that of the queue it is in (an
	// input or output queue's client index), and channels and the internal
	// datapath carry it beside the flit pointer.

	// vfGen and vfInFlight are the invariant-verification subsystem's
	// in-flight ledger, inlined into the flit so the ledger needs no shared
	// map: every channel hop checks it, and a field read costs no lookup and
	// no allocation. The fields are written only at injection/retirement
	// (terminal side); hops merely read them.
	vfGen uint32

	Head       bool
	Tail       bool
	vfInFlight bool

	// span is the span recorder's slot of the message's open span plus one,
	// or 0 when the flit is not tracked (see "The span slot" above).
	span int32
}

// VerifyMarkInFlight records the flit entering the network, stamping the
// owning message's generation. Owned by internal/verify.
func (f *Flit) VerifyMarkInFlight(gen uint32) {
	f.vfGen = gen
	f.vfInFlight = true
}

// VerifyClearInFlight records the flit retiring from the network. Owned by
// internal/verify.
func (f *Flit) VerifyClearInFlight() { f.vfInFlight = false }

// VerifyInFlight returns the message generation recorded at injection and
// whether the flit is currently marked in flight. Owned by internal/verify.
func (f *Flit) VerifyInFlight() (uint32, bool) { return f.vfGen, f.vfInFlight }

// Span returns the span recorder's slot of the flit's open span plus one, or
// 0 when the flit is not tracked. Owned by internal/telemetry.
func (f *Flit) Span() int32 { return f.span }

// SetSpan stores the span recorder's slot plus one (0 to stop tracking).
// Owned by internal/telemetry.
func (f *Flit) SetSpan(slot int32) { f.span = slot }

func (f *Flit) String() string {
	kind := "body"
	if f.Head && f.Tail {
		kind = "head+tail"
	} else if f.Head {
		kind = "head"
	} else if f.Tail {
		kind = "tail"
	}
	return fmt.Sprintf("flit[msg=%d pkt=%d id=%d %s]",
		f.Pkt.Msg.ID, f.Pkt.ID, f.ID, kind)
}

// Credit is the unit of credit-based flow control: one credit returns one
// flit slot in the upstream direction for a specific VC.
type Credit struct {
	VC int
}

// FlitSink receives flits. Routers and interfaces implement it for their
// input ports; channels deliver into it.
type FlitSink interface {
	// ReceiveFlit accepts a flit arriving on the given local port number
	// and virtual channel.
	ReceiveFlit(port, vc int, f *Flit)
}

// CreditSink receives credits flowing in the reverse direction of flits.
type CreditSink interface {
	// ReceiveCredit accepts a credit arriving for the given local port.
	ReceiveCredit(port int, c Credit)
}
