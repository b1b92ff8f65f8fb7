package types

import (
	"math"

	"supersim/internal/snapshot"
)

// This file serializes traffic objects for checkpoints. Packets and flits
// live inside their message, and components hold them by pointer, so every
// holder codes a reference through the walk's MessageTable. The first
// reference to a message defines it in full (shape + every mutable field);
// later ones are (message ID, packet index, flit index). The walk visits
// components in build order, so where each message is defined is
// deterministic too. Nothing that records how host memory was recycled is
// serialized: not the pool's free list or its hit count, not a message's
// generation, not a flit's copy of it. A restored run allocates fresh blocks
// on its first misses and starts every live message at generation 1.

// MessageTable is the set of messages one checkpoint walk has defined. A
// saving walk writes each message at its first reference; a loading walk
// builds it there, owned by the table's pool, and resolves later references
// against it.
type MessageTable struct {
	idx  map[uint64]*Message
	pool *Pool // nil for unpooled
	b    Bounds
}

// NewMessageTable returns an empty table for one walk. A loading walk builds
// its messages into pool, so the restored run's delivery path releases them
// back into it exactly as the original run would have, and range-checks
// them against b.
func NewMessageTable(pool *Pool, b Bounds) *MessageTable {
	return &MessageTable{idx: map[uint64]*Message{}, pool: pool, b: b}
}

// Message returns the message with the given ID that the walk has defined so
// far, or nil. Subsystems coded after the network (the span recorder) link
// their per-message state to the walk's messages through it.
func (t *MessageTable) Message(id uint64) *Message { return t.idx[id] }

// Bounds are the index ranges restored traffic objects are validated
// against: terminal and application numbers end up as slice indices in the
// continued run. A flit's VC is not a traffic-object field: its holder codes
// it (see channel.Line and the routers' delay lines).
type Bounds struct {
	Terminals, Apps int
}

// The kinds of packet reference, coded ahead of the reference.
const (
	refNone       = iota // no packet
	refDefined           // a message the walk has defined: its ID follows
	refDefinition        // the message's first reference: its definition follows
	refKinds
)

// state codes one message: its shape, then every mutable field of the
// message, its packets (with their times when it has several) and its
// flits. When loading, m is empty and the shape sizes its blocks. Every
// int32 field is range-checked as it loads: an index against its bound,
// anything else against int32 itself.
func (m *Message) state(c *snapshot.Codec, pool *Pool, b Bounds) {
	c.U64(&m.ID)
	flits, maxPkt := m.TotalFlits(), m.maxPkt()
	c.Int(&flits)
	c.Int(&maxPkt)
	if c.Loading() {
		if c.Err() != nil {
			return
		}
		if flits <= 0 || maxPkt <= 0 || flits > math.MaxInt32 {
			c.Failf("message %d has invalid shape (%d flits, max packet %d)", m.ID, flits, maxPkt)
			return
		}
		if flits > c.Remaining() {
			// Each flit serializes to at least one byte, so a count beyond the
			// remaining input is corrupt; reject before allocating the blocks.
			c.Failf("message %d flit count %d exceeds remaining input", m.ID, flits)
			return
		}
		// Blocks come from a fresh allocation, not pool.NewMessage: the pool's
		// lifecycle counters were checkpointed after this message was obtained,
		// so drawing it again would double-count.
		if pool != nil {
			m.pool = pool.id
		}
		m.alloc(flits, maxPkt)
		m.gen = 1
	}
	index32(c.Index, &m.App, b.Apps, "Message.App")
	index32(c.Index, &m.Src, b.Terminals, "Message.Src")
	// The destination is coded once per message; every packet holds it.
	index32(c.Index, &m.first.dst, b.Terminals, "Message.Dst")
	snapshot.Uint(c, &m.CreateTime)
	snapshot.Uint(c, &m.ReceiveTime)
	c.Bool(&m.Sampled)
	snapshot.Sint(c, &m.RxRemaining)
	for i := 0; i < m.NumPackets(); i++ {
		p := m.Packet(i)
		p.dst = m.first.dst
		snapshot.Sint(c, &p.HopCount)
		c.Bool(&p.NonMinimal)
		snapshot.Sint(c, &p.Intermediate)
		if t := p.Times(); t != nil {
			snapshot.Uint(c, &t.Inject)
			snapshot.Uint(c, &t.Receive)
		}
		c.Bool(&p.Routing.Valid)
		snapshot.Sint(c, &p.Routing.Phase)
		c.Bool(&p.Routing.Dateline)
		snapshot.Sint(c, &p.rxNext)
	}
	for i := 0; i < m.NumPackets(); i++ {
		p := m.Packet(i)
		for j := 0; j < p.Size(); j++ {
			f := p.Flit(j)
			if c.Loading() {
				// The aliasing sentinel compares a flit's stamp with its
				// message's generation, never their absolute values.
				f.vfGen = m.gen
			}
			c.Bool(&f.vfInFlight)
		}
	}
}

// index32 codes an int32 index field through code (Codec.Index or
// IndexOrNone) and its range check; a bound beyond int32 is clipped to it,
// so a loaded value always fits.
func index32(code func(p *int, bound int, what string), p *int32, bound int, what string) {
	v := int(*p)
	code(&v, min(bound, math.MaxInt32), what)
	*p = int32(v)
}

// Packet codes a reference to a packet held by a component: its kind, the
// message's ID or, at the message's first reference, its definition, then
// the packet index. Loading builds a defined message, resolves a reference
// against the messages defined before it and bounds-checks the index; *pp is
// nil for an absent reference and after any error.
func (t *MessageTable) Packet(c *snapshot.Codec, pp **Packet) {
	var m *Message
	var id uint64
	var pkt int
	kind := refNone
	if p := *pp; p != nil && !c.Loading() {
		m, id, pkt, kind = p.Msg, p.Msg.ID, int(p.ID), refDefinition
		if prev, ok := t.idx[id]; ok {
			if prev != m {
				c.Failf("two live messages share ID %d", id)
				return
			}
			kind = refDefined
		}
	}
	if c.Loading() {
		*pp = nil
	}
	c.Index(&kind, refKinds, "message reference kind")
	switch kind {
	case refNone:
		return
	case refDefined:
		c.U64(&id)
		if c.Loading() {
			if m = t.idx[id]; m == nil && c.Err() == nil {
				c.Failf("reference to message %d before its definition", id)
			}
		}
	case refDefinition:
		if c.Loading() {
			m = &Message{}
		}
		m.state(c, t.pool, t.b)
		if c.Err() != nil {
			return
		}
		if t.idx[m.ID] != nil {
			c.Failf("message %d defined twice", m.ID)
			return
		}
		t.idx[m.ID] = m
	}
	c.Int(&pkt)
	if !c.Loading() || c.Err() != nil {
		return
	}
	if pkt < 0 || pkt >= m.NumPackets() {
		c.Failf("reference to message %d packet %d of %d", m.ID, pkt, m.NumPackets())
		return
	}
	*pp = m.Packet(pkt)
}

// Flit codes a reference to a flit held by a component: a packet reference
// followed by the flit's index within the packet.
func (t *MessageTable) Flit(c *snapshot.Codec, pf **Flit) {
	var p *Packet
	var fl int
	if f := *pf; f != nil && !c.Loading() {
		p, fl = f.Pkt, int(f.ID)
	}
	t.Packet(c, &p)
	if p != nil {
		c.Index(&fl, p.Size(), "flit reference index")
	}
	if c.Loading() {
		*pf = nil
		if p != nil && c.Err() == nil {
			*pf = p.Flit(fl)
		}
	}
}

// State codes the pool's lifecycle counters. The free list and the hit count
// are not state — see the file comment.
func (p *Pool) State(c *snapshot.Codec) {
	c.U64(&p.gets)
	c.U64(&p.releases)
}

// State codes the checker's partial-delivery count (the per-packet cursors
// travel with their messages).
func (oc *OrderChecker) State(c *snapshot.Codec) {
	c.Int(&oc.outstanding)
}
