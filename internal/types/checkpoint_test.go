package types

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
)

// testBounds admits every index testMessage uses.
var testBounds = Bounds{Terminals: 4, Apps: 2}

// testMessage builds a message with every serialized field set to a
// non-default value so round trips exercise real state, not zeroes.
func testMessage(pool *Pool, id uint64) *Message {
	var m *Message
	if pool != nil {
		m = pool.NewMessage(id, 1, 2, 3, 5, 2)
	} else {
		m = NewMessage(id, 1, 2, 3, 5, 2)
	}
	m.CreateTime = 10
	m.ReceiveTime = 30
	m.Sampled = true
	m.RxRemaining = 2
	for i := 0; i < m.NumPackets(); i++ {
		p := m.Packet(i)
		p.HopCount = int32(i + 1)
		p.NonMinimal = i%2 == 0
		p.Intermediate = 7
		*p.Times() = PacketTimes{Inject: sim.Tick(13 + i), Receive: sim.Tick(29 - i)}
		p.Routing.Valid = true
		p.Routing.Phase = int8(i - 1)
		p.Routing.Dateline = i == 0
		p.rxNext = int32(i)
		for j := 0; j < p.Size(); j++ {
			f := p.Flit(j)
			f.vfGen = m.gen
			f.vfInFlight = j == 0
		}
	}
	return m
}

// walkRefs codes a reference to each packet through tab, as a walk whose
// holders hold those packets does.
func walkRefs(tab *MessageTable, pkts []*Packet) func(c *snapshot.Codec) {
	return func(c *snapshot.Codec) {
		for i := range pkts {
			tab.Packet(c, &pkts[i])
		}
	}
}

func TestMessageTableRoundTrip(t *testing.T) {
	pool := NewPool()
	pool.Release(testMessage(pool, 1))
	m7 := testMessage(pool, 7) // recycled: its second life
	m3 := testMessage(pool, 3)
	if m7.Generation() != 2 {
		t.Fatalf("recycled message at generation %d, want 2", m7.Generation())
	}
	// m7's first reference defines it; its second is short.
	refs := []*Packet{m7.Packet(2), m3.Packet(0), nil, m7.Packet(1)}
	data := snaptest.Save(walkRefs(NewMessageTable(nil, testBounds), refs))
	// A second reference is its kind, ID 7 and packet index 1: a byte each.
	def := snaptest.Save(walkRefs(NewMessageTable(nil, testBounds), []*Packet{m7.Packet(1)}))
	twice := snaptest.Save(walkRefs(NewMessageTable(nil, testBounds), []*Packet{m7.Packet(1), m7.Packet(1)}))
	if !bytes.Equal(twice[:len(def)], def) || len(twice)-len(def) != 3 {
		t.Fatalf("a second reference takes %d bytes; only the first defines the message", len(twice)-len(def))
	}

	d := snapshot.NewLoader(data)
	got := NewMessageTable(pool, testBounds)
	loaded := make([]*Packet, len(refs))
	if walkRefs(got, loaded)(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if len(got.idx) != 2 || loaded[2] != nil || loaded[0].Msg != loaded[3].Msg || loaded[0].ID != 2 || loaded[3].ID != 1 {
		t.Fatalf("restored %d messages, references %v", len(got.idx), loaded)
	}
	// The restored messages must re-serialize to the identical bytes: every
	// field of every packet and flit made the trip.
	if !bytes.Equal(snaptest.Save(walkRefs(NewMessageTable(nil, testBounds), loaded)), data) {
		t.Fatal("restored messages do not re-serialize byte-identically")
	}
	rm := got.idx[7]
	if rm == nil || rm.Src != 2 || rm.Dst() != 3 || rm.CreateTime != 10 || !rm.Sampled {
		t.Fatalf("restored message 7 lost fields: %+v", rm)
	}
	// Each packet of a multi-packet message keeps its own times.
	for i := 0; i < rm.NumPackets(); i++ {
		if got, want := *rm.Packet(i).Times(), (PacketTimes{Inject: sim.Tick(13 + i), Receive: sim.Tick(29 - i)}); got != want {
			t.Errorf("restored packet %d times %+v, want %+v", i, got, want)
		}
	}
	if rm.pool != pool.id {
		t.Fatal("restored message not owned by the table's pool")
	}
	if rm.NumPackets() != 3 || rm.Packet(0).Size() != 2 || rm.Packet(2).Size() != 1 {
		t.Fatal("restored message shape wrong (5 flits, max packet 2)")
	}
	// The destination is coded once per message and set on every packet.
	for i := 0; i < rm.NumPackets(); i++ {
		if p := rm.Packet(i); p.Dst() != rm.Dst() {
			t.Errorf("restored packet %d routes to %d, message to %d", i, p.Dst(), rm.Dst())
		}
	}
	// How often a block was recycled is not state: every restored message
	// starts its first life, and its flits carry that generation.
	for _, m := range got.idx {
		if m.Generation() != 1 {
			t.Errorf("restored message %d at generation %d, want 1", m.ID, m.Generation())
		}
		for pi := 0; pi < m.NumPackets(); pi++ {
			p := m.Packet(pi)
			for fi := 0; fi < p.Size(); fi++ {
				f := p.Flit(fi)
				if gen, _ := f.VerifyInFlight(); gen != m.Generation() {
					t.Errorf("restored %v stamped generation %d, message at %d", f, gen, m.Generation())
				}
			}
		}
	}
}

func TestFlitAndPacketReferences(t *testing.T) {
	m := testMessage(nil, 11)
	tab := NewMessageTable(nil, testBounds)
	flit, pkt := m.Packet(1).Flit(1), m.Packet(2)
	var noFlit *Flit
	var noPkt *Packet
	data := snaptest.Save(func(c *snapshot.Codec) {
		tab.Flit(c, &flit)
		tab.Flit(c, &noFlit)
		tab.Packet(c, &pkt)
		tab.Packet(c, &noPkt)
	})
	if flit != m.Packet(1).Flit(1) || pkt != m.Packet(2) {
		t.Fatal("saving a reference disturbed the holder's pointer")
	}

	d := snapshot.NewLoader(data)
	got := NewMessageTable(nil, testBounds)
	// Loading overwrites whatever the holder had, present or not.
	f, f2, p, p2 := flit, flit, pkt, pkt
	got.Flit(d, &f)
	got.Flit(d, &f2)
	got.Packet(d, &p)
	got.Packet(d, &p2)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if f == nil || f == flit || f.Pkt.Msg.ID != 11 || f.Pkt.ID != 1 || f.ID != 1 {
		t.Fatalf("flit reference resolved to %v", f)
	}
	if f2 != nil {
		t.Fatalf("nil flit reference resolved to %v", f2)
	}
	if p == nil || p == pkt || p.Msg != f.Pkt.Msg || p.ID != 2 {
		t.Fatalf("packet reference resolved to %v", p)
	}
	if p2 != nil {
		t.Fatalf("nil packet reference resolved to %v", p2)
	}
}

func TestReferenceDecodingRejectsCorruption(t *testing.T) {
	m := testMessage(nil, 5)
	// defined is a table in which message 5 is defined.
	defined := func(c *snapshot.Codec) *MessageTable {
		tab := NewMessageTable(nil, testBounds)
		if c.Loading() {
			var p *Packet
			tab.Packet(c, &p)
		}
		return tab
	}
	loadFlit := func(c *snapshot.Codec) {
		tab := defined(c)
		f := m.Packet(0).Flit(0) // a failed load must clear the holder
		if tab.Flit(c, &f); f != nil {
			t.Errorf("failed flit load left %v behind", f)
		}
	}
	loadPacket := func(c *snapshot.Codec) {
		tab := defined(c)
		p := m.Packet(0)
		if tab.Packet(c, &p); p != nil {
			t.Errorf("failed packet load left %v behind", p)
		}
	}
	// ref writes message 5's definition, then a reference of the given
	// kind: the message ID, then the given indices.
	ref := func(kind int, id uint64, idx ...int) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) {
			p := m.Packet(0)
			NewMessageTable(nil, testBounds).Packet(c, &p)
			snaptest.Put(c.Int, kind)
			snaptest.Put(c.U64, id)
			for _, i := range idx {
				snaptest.Put(c.Int, i)
			}
		}
	}
	cases := []struct {
		name string
		run  func(c *snapshot.Codec)
		enc  func(c *snapshot.Codec)
		want string
	}{
		{"flit undefined message", loadFlit, ref(refDefined, 99, 0, 0), "message 99 before its definition"},
		{"flit packet out of range", loadFlit, ref(refDefined, 5, 9, 0), "packet 9"},
		{"flit index out of range", loadFlit, ref(refDefined, 5, 0, 9), "flit reference index 9"},
		{"flit truncated", loadFlit, ref(refDefined, 5), "snapshot:"},
		{"packet undefined message", loadPacket, ref(refDefined, 99, 0), "message 99 before its definition"},
		{"packet out of range", loadPacket, ref(refDefined, 5, -1), "packet -1"},
		{"packet truncated", loadPacket, ref(refDefined, 5), "snapshot:"},
		{"unknown kind", loadPacket, ref(refKinds, 5, 0), "message reference kind 3 out of range"},
		{"negative kind", loadPacket, ref(-1, 5, 0), "message reference kind -1 out of range"},
	}
	for _, tc := range cases {
		if err := snaptest.Load(snaptest.Save(tc.enc), tc.run); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestMessageTableLoadRejectsCorruption(t *testing.T) {
	// load reads two packet references, so a stream can define a message
	// and then define or reference it again.
	load := func(fn func(c *snapshot.Codec)) error {
		return snaptest.Load(snaptest.Save(fn), func(c *snapshot.Codec) {
			tab := NewMessageTable(nil, testBounds)
			var p, q *Packet
			tab.Packet(c, &p)
			tab.Packet(c, &q)
		})
	}
	m3 := testMessage(nil, 3)
	// def writes m's definition as a first reference to its packet 0.
	def := func(m *Message) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) {
			p := m.Packet(0)
			NewMessageTable(nil, testBounds).Packet(c, &p)
		}
	}
	none := func(c *snapshot.Codec) { snaptest.Put(c.Int, refNone) }
	// shape writes a definition of message 4 up to its shape prefix.
	shape := func(flits, maxPkt int) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) {
			snaptest.Put(c.Int, refDefinition)
			snaptest.Put(c.U64, 4)
			snaptest.Put(c.Int, flits)
			snaptest.Put(c.Int, maxPkt)
		}
	}
	// mutated is m3's definition with one field changed for the save.
	mutated := func(field *int32, v int32) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) {
			old := *field
			*field = v
			def(m3)(c)
			none(c)
			*field = old
		}
	}
	// packet0 writes a definition of one 1-flit message up to its packet's
	// Intermediate, with the given HopCount and Intermediate.
	packet0 := func(hops, inter int) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) {
			shape(1, 1)(c)
			snaptest.Put(c.Int, 0)      // App
			snaptest.Put(c.Int, 0)      // Src
			snaptest.Put(c.Int, 1)      // Dst
			snaptest.Put(c.U64, 0)      // CreateTime
			snaptest.Put(c.U64, 0)      // ReceiveTime
			snaptest.Put(c.Bool, false) // Sampled
			snaptest.Put(c.Int, 1)      // RxRemaining
			snaptest.Put(c.Int, hops)   // HopCount
			snaptest.Put(c.Bool, false) // NonMinimal
			snaptest.Put(c.Int, inter)  // Intermediate
		}
	}
	// Another message that shares m3's ID but not its shape.
	twin := NewMessage(3, 0, 1, 0, 1, 1)
	cases := []struct {
		name string
		enc  func(c *snapshot.Codec)
		want string
	}{
		{"zero flits", shape(0, 1), "invalid shape"},
		{"zero max packet", shape(2, 0), "invalid shape"},
		{"flit bomb", shape(1<<30, 2), "exceeds remaining"},
		{"defined twice", func(c *snapshot.Codec) { def(m3)(c); def(m3)(c) }, "message 3 defined twice"},
		{"two definitions share an ID", func(c *snapshot.Codec) { def(m3)(c); def(twin)(c) }, "message 3 defined twice"},
		{"truncated", func(c *snapshot.Codec) { snaptest.Put(c.Int, refDefinition); snaptest.Put(c.U64, 3) }, "snapshot:"},
		{"empty", func(c *snapshot.Codec) {}, "snapshot:"},
		{"source terminal", mutated(&m3.Src, int32(testBounds.Terminals)), "Message.Src 4 out of range"},
		{"destination terminal", mutated(&m3.first.dst, -1), "Message.Dst -1 out of range"},
		{"application", mutated(&m3.App, int32(testBounds.Apps)), "Message.App 2 out of range"},
		{"shape beyond int32", shape(1<<31, 2), "invalid shape"},
		{"hop count beyond int32", packet0(1<<31, -1), "overflows int32"},
		{"intermediate beyond int32", packet0(0, 1<<31), "overflows int32"},
		{"intermediate below int32", packet0(0, -1<<31-1), "overflows int32"},
	}
	for _, tc := range cases {
		if err := load(tc.enc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestMessageTableSaveRejectsSharedIDs: two live messages with one ID would
// make every later reference ambiguous, so the saving walk fails instead of
// writing a stream that restores the wrong message.
func TestMessageTableSaveRejectsSharedIDs(t *testing.T) {
	a, b := testMessage(nil, 1), testMessage(nil, 1)
	c := snapshot.NewSaver()
	walkRefs(NewMessageTable(nil, testBounds), []*Packet{a.Packet(0), a.Packet(1), b.Packet(0)})(c)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "two live messages share ID 1") {
		t.Fatalf("err = %v, want a shared-ID error", err)
	}
}

func TestPoolStateRoundTrip(t *testing.T) {
	p := NewPool()
	a := p.NewMessage(1, 0, 0, 1, 4, 2)
	p.Release(a)
	b := p.NewMessage(2, 0, 0, 1, 4, 2) // same bucket: a hit
	_ = b
	got := NewPool()
	if err := snaptest.Load(snaptest.Save(p.State), got.State); err != nil {
		t.Fatal(err)
	}
	// Hits count free-list service in this process; the free list is not
	// state, so neither is the count.
	want := p.Stats()
	want.Hits = 0
	if got.Stats() != want {
		t.Fatalf("pool stats %+v, want %+v", got.Stats(), want)
	}
	if err := snaptest.Load(nil, got.State); err == nil {
		t.Fatal("empty input loaded without error")
	}
}

func TestOrderCheckerStateRoundTrip(t *testing.T) {
	c := NewOrderChecker(0)
	m := NewMessage(9, 0, 0, 0, 2, 2)
	if c.Check(m.Packet(0).Flit(0)) {
		t.Fatal("head flit of a 2-flit packet reported as packet completion")
	}
	got := NewOrderChecker(0)
	if err := snaptest.Load(snaptest.Save(c.State), got.State); err != nil {
		t.Fatal(err)
	}
	if got.Outstanding() != c.Outstanding() {
		t.Fatalf("outstanding %d, want %d", got.Outstanding(), c.Outstanding())
	}
	if err := snaptest.Load(nil, got.State); err == nil {
		t.Fatal("empty input loaded without error")
	}
}
