package types

import (
	"sort"

	"supersim/internal/snapshot"
)

// This file serializes traffic objects for checkpoints. Messages are the
// serialization root: packets and flits are views into a message's
// contiguous blocks, so a checkpoint stores each live message once (shape +
// every mutable field) and every component that holds flit pointers stores
// (message ID, packet index, flit index) references resolved against the
// restored table. Nothing that records how host memory was recycled is
// serialized: not the pool's free list or its hit count, not a message's
// generation, not a flit's copy of it. A restored run allocates fresh blocks
// on its first misses and starts every live message at generation 1.

// MessageTable is the set of live messages referenced by a checkpoint. A
// saving walk populates it from every flit-holding component, deduplicating
// shared messages; a loading walk rebuilds the messages and resolves flit
// references against them.
type MessageTable struct {
	msgs []*Message
	idx  map[uint64]*Message
}

// NewMessageTable returns an empty table.
func NewMessageTable() *MessageTable {
	return &MessageTable{idx: map[uint64]*Message{}}
}

// Add records a live message. Adding the same message twice is a no-op, so
// every holder of a flit can add its message unconditionally. Two distinct
// messages with the same ID would corrupt the reference space and panic.
func (t *MessageTable) Add(m *Message) {
	if m == nil {
		return
	}
	if prev, ok := t.idx[m.ID]; ok {
		if prev != m {
			panic("types: two live messages share an ID")
		}
		return
	}
	t.idx[m.ID] = m
	t.msgs = append(t.msgs, m)
}

// Len returns the number of distinct messages added.
func (t *MessageTable) Len() int { return len(t.msgs) }

// Bounds are the index ranges restored traffic objects are validated
// against: terminal, application and VC numbers end up as slice indices in
// the continued run.
type Bounds struct {
	Terminals, Apps, VCs int
}

// State codes the live messages, sorted by ID so the byte stream is
// independent of collection order. Saving walks the messages Add collected;
// loading rebuilds them into the (empty) table, owned by the given pool (nil
// for unpooled) so the restored run's delivery path releases them back into
// it exactly as the original run would have.
func (t *MessageTable) State(c *snapshot.Codec, pool *Pool, b Bounds) {
	if !c.Loading() {
		sort.Slice(t.msgs, func(i, j int) bool { return t.msgs[i].ID < t.msgs[j].ID })
	}
	n := c.Len(len(t.msgs))
	var prev uint64
	for i := 0; i < n; i++ {
		if !c.Loading() {
			t.msgs[i].state(c, pool, b)
			continue
		}
		m := &Message{}
		m.state(c, pool, b)
		if c.Err() != nil {
			return
		}
		if i > 0 && m.ID <= prev {
			c.Failf("message table not sorted: ID %d after %d", m.ID, prev)
			return
		}
		prev = m.ID
		t.Add(m)
	}
}

// state codes one message: its shape, then every mutable field of the
// message, its packets and its flits. When loading, m is empty and the shape
// sizes its blocks.
func (m *Message) state(c *snapshot.Codec, pool *Pool, b Bounds) {
	c.U64(&m.ID)
	flits := len(m.flitBlock)
	c.Int(&flits)
	c.Int(&m.maxPkt)
	if c.Loading() {
		if c.Err() != nil {
			return
		}
		if flits <= 0 || m.maxPkt <= 0 {
			c.Failf("message %d has invalid shape (%d flits, max packet %d)", m.ID, flits, m.maxPkt)
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
		m.pool = pool
		m.alloc(flits, m.maxPkt)
		m.gen = 1
	}
	c.Index(&m.App, b.Apps, "Message.App")
	c.U64(&m.Transaction)
	c.Index(&m.Src, b.Terminals, "Message.Src")
	c.Index(&m.Dst, b.Terminals, "Message.Dst")
	snapshot.Uint(c, &m.CreateTime)
	snapshot.Uint(c, &m.InjectTime)
	snapshot.Uint(c, &m.ReceiveTime)
	c.Bool(&m.Sampled)
	c.Int(&m.OpCode)
	c.Int(&m.RxRemaining)
	for i := range m.pktBlock {
		p := &m.pktBlock[i]
		c.Int(&p.HopCount)
		c.Bool(&p.NonMinimal)
		c.Int(&p.Intermediate)
		snapshot.Uint(c, &p.InjectTime)
		snapshot.Uint(c, &p.ReceiveTime)
		c.Bool(&p.Routing.Valid)
		snapshot.Sint(c, &p.Routing.Phase)
		c.Bool(&p.Routing.Dateline)
		c.Int(&p.rxNext)
	}
	for i := range m.flitBlock {
		f := &m.flitBlock[i]
		// -1 until the flit wins its first VC at the injecting interface.
		c.IndexOrNone(&f.VC, b.VCs, "Flit.VC")
		snapshot.Uint(c, &f.SendTime)
		snapshot.Uint(c, &f.ReceiveTime)
		if c.Loading() {
			// The aliasing sentinel compares a flit's stamp with its message's
			// generation, never their absolute values.
			f.vfGen = m.gen
		}
		c.Bool(&f.vfInFlight)
	}
}

// Packet codes a reference to a packet held by a component: a present flag
// and, when present, (message ID, packet index). Saving, the packet's message
// must have been added to the table first — an unknown message means the
// checkpoint's collection pass missed a holder, which would produce a
// dangling reference at restore. Loading resolves the reference against the
// restored table, bounds-checking the index; *pp is nil for an absent
// reference and after any error.
func (t *MessageTable) Packet(c *snapshot.Codec, pp **Packet) {
	if c.Loading() {
		*pp = nil
	}
	present := *pp != nil
	c.Bool(&present)
	var id uint64
	var pkt int
	if p := *pp; p != nil {
		if t.idx[p.Msg.ID] != p.Msg {
			panic("types: reference to a message not in the checkpoint table")
		}
		id, pkt = p.Msg.ID, p.ID
	}
	if present {
		c.U64(&id)
		c.Int(&pkt)
	}
	if !c.Loading() || !present || c.Err() != nil {
		return
	}
	m, ok := t.idx[id]
	if !ok {
		c.Failf("reference to unknown message %d", id)
		return
	}
	if pkt < 0 || pkt >= len(m.Packets) {
		c.Failf("reference to message %d packet %d of %d", id, pkt, len(m.Packets))
		return
	}
	*pp = m.Packets[pkt]
}

// Flit codes a reference to a flit held by a component: a packet reference
// followed by the flit's index within the packet.
func (t *MessageTable) Flit(c *snapshot.Codec, pf **Flit) {
	var p *Packet
	var fl int
	if f := *pf; f != nil && !c.Loading() {
		p, fl = f.Pkt, f.ID
	}
	t.Packet(c, &p)
	if p != nil {
		c.Index(&fl, len(p.Flits), "flit reference index")
	}
	if c.Loading() {
		*pf = nil
		if p != nil && c.Err() == nil {
			*pf = p.Flits[fl]
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
