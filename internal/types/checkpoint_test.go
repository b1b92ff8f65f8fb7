package types

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
)

// testBounds admits every index testMessage uses.
var testBounds = Bounds{Terminals: 4, Apps: 2, VCs: 3}

// testMessage builds a message with every serialized field set to a
// non-default value so round trips exercise real state, not zeroes.
func testMessage(pool *Pool, id uint64) *Message {
	var m *Message
	if pool != nil {
		m = pool.NewMessage(id, 1, 2, 3, 5, 2)
	} else {
		m = NewMessage(id, 1, 2, 3, 5, 2)
	}
	m.Transaction = 99
	m.CreateTime = 10
	m.ReceiveTime = 30
	m.Sampled = true
	m.OpCode = 4
	m.RxRemaining = 2
	for i := 0; i < m.NumPackets(); i++ {
		p := m.Packet(i)
		p.HopCount = int32(i + 1)
		p.NonMinimal = i%2 == 0
		p.Intermediate = 7
		p.InjectTime = 13
		p.ReceiveTime = 29
		p.Routing.Valid = true
		p.Routing.Phase = int8(i - 1)
		p.Routing.Dateline = i == 0
		p.rxNext = int32(i)
		for j := 0; j < p.Size(); j++ {
			f := p.Flit(j)
			f.VC = int32(j % 3)
			f.vfGen = m.gen
			f.vfInFlight = j == 0
		}
	}
	return m
}

func saveTable(t *MessageTable) []byte {
	return snaptest.Save(func(c *snapshot.Codec) { t.State(c, nil, testBounds) })
}

func TestMessageTableRoundTrip(t *testing.T) {
	pool := NewPool()
	pool.Release(testMessage(pool, 1))
	m7 := testMessage(pool, 7) // recycled: its second life
	m3 := testMessage(pool, 3)
	if m7.Generation() != 2 {
		t.Fatalf("recycled message at generation %d, want 2", m7.Generation())
	}
	tab := NewMessageTable()
	tab.Add(m7) // out of ID order: State must sort
	tab.Add(m3)
	tab.Add(m7) // duplicate add is a no-op
	tab.Add(nil)
	if tab.Len() != 2 {
		t.Fatalf("table len %d, want 2", tab.Len())
	}
	data := saveTable(tab)

	d := snapshot.NewLoader(data)
	got := NewMessageTable()
	if got.State(d, pool, testBounds); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.Len() != 2 {
		t.Fatalf("restored table len %d", got.Len())
	}
	// The restored messages must re-serialize to the identical bytes: every
	// field of every packet and flit made the trip.
	if !bytes.Equal(saveTable(got), data) {
		t.Fatal("restored table does not re-serialize byte-identically")
	}
	rm := got.idx[7]
	if rm == nil || rm.Src != 2 || rm.Dst != 3 || rm.Transaction != 99 || !rm.Sampled {
		t.Fatalf("restored message 7 lost fields: %+v", rm)
	}
	if rm.pool != pool.id {
		t.Fatal("restored message not owned by the given pool")
	}
	if rm.NumPackets() != 3 || rm.Packet(0).Size() != 2 || rm.Packet(2).Size() != 1 {
		t.Fatal("restored message shape wrong (5 flits, max packet 2)")
	}
	// How often a block was recycled is not state: every restored message
	// starts its first life, and its flits carry that generation.
	for _, m := range got.msgs {
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
	tab := NewMessageTable()
	tab.Add(m)
	flit, pkt := m.Packet(1).Flit(1), m.Packet(2)
	var noFlit *Flit
	var noPkt *Packet
	data := snaptest.Save(func(c *snapshot.Codec) {
		tab.State(c, nil, testBounds)
		tab.Flit(c, &flit)
		tab.Flit(c, &noFlit)
		tab.Packet(c, &pkt)
		tab.Packet(c, &noPkt)
	})
	if flit != m.Packet(1).Flit(1) || pkt != m.Packet(2) {
		t.Fatal("saving a reference disturbed the holder's pointer")
	}

	d := snapshot.NewLoader(data)
	got := NewMessageTable()
	got.State(d, nil, testBounds)
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
	if p == nil || p == pkt || p.Msg.ID != 11 || p.ID != 2 {
		t.Fatalf("packet reference resolved to %v", p)
	}
	if p2 != nil {
		t.Fatalf("nil packet reference resolved to %v", p2)
	}
}

func TestReferenceDecodingRejectsCorruption(t *testing.T) {
	m := testMessage(nil, 5)
	tab := NewMessageTable()
	tab.Add(m)

	loadFlit := func(c *snapshot.Codec) {
		f := m.Packet(0).Flit(0) // a failed load must clear the holder
		if tab.Flit(c, &f); f != nil {
			t.Errorf("failed flit load left %v behind", f)
		}
	}
	loadPacket := func(c *snapshot.Codec) {
		p := m.Packet(0)
		if tab.Packet(c, &p); p != nil {
			t.Errorf("failed packet load left %v behind", p)
		}
	}
	// ref writes a present reference: the message ID, then the given indices.
	ref := func(id uint64, idx ...int) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) {
			snaptest.Put(c.Bool, true)
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
		{"flit unknown message", loadFlit, ref(99, 0, 0), "unknown message"},
		{"flit packet out of range", loadFlit, ref(5, 9, 0), "packet 9"},
		{"flit index out of range", loadFlit, ref(5, 0, 9), "flit reference index 9"},
		{"flit truncated", loadFlit, func(c *snapshot.Codec) { snaptest.Put(c.Bool, true) }, "snapshot:"},
		{"packet unknown message", loadPacket, ref(99, 0), "unknown message"},
		{"packet out of range", loadPacket, ref(5, -1), "packet -1"},
		{"packet truncated", loadPacket, ref(5), "snapshot:"},
	}
	for _, tc := range cases {
		if err := snaptest.Load(snaptest.Save(tc.enc), tc.run); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestMessageTableLoadRejectsCorruption(t *testing.T) {
	load := func(fn func(c *snapshot.Codec)) error {
		return snaptest.Load(snaptest.Save(fn), func(c *snapshot.Codec) {
			NewMessageTable().State(c, nil, testBounds)
		})
	}
	m7 := testMessage(nil, 7)
	m3 := testMessage(nil, 3)
	msg := func(m *Message) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) { m.state(c, nil, testBounds) }
	}
	// shape writes a table of one message up to its shape prefix.
	shape := func(flits, maxPkt int) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) {
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.U64, 4)
			snaptest.Put(c.Int, flits)
			snaptest.Put(c.Int, maxPkt)
		}
	}
	// mutated is a table holding m3 with one field changed for the save.
	mutated := func(field *int32, v int32) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) {
			old := *field
			*field = v
			snaptest.Put(c.Int, 1)
			msg(m3)(c)
			*field = old
		}
	}
	// packet0 writes a table of one 1-flit message up to its packet's
	// Intermediate, with the given HopCount and Intermediate.
	packet0 := func(hops, inter int) func(c *snapshot.Codec) {
		return func(c *snapshot.Codec) {
			shape(1, 1)(c)
			snaptest.Put(c.Int, 0)      // App
			snaptest.Put(c.U64, 0)      // Transaction
			snaptest.Put(c.Int, 0)      // Src
			snaptest.Put(c.Int, 1)      // Dst
			snaptest.Put(c.U64, 0)      // CreateTime
			snaptest.Put(c.U64, 0)      // ReceiveTime
			snaptest.Put(c.Bool, false) // Sampled
			snaptest.Put(c.Int, 0)      // OpCode
			snaptest.Put(c.Int, 1)      // RxRemaining
			snaptest.Put(c.Int, hops)   // HopCount
			snaptest.Put(c.Bool, false) // NonMinimal
			snaptest.Put(c.Int, inter)  // Intermediate
		}
	}
	cases := []struct {
		name string
		enc  func(c *snapshot.Codec)
		want string
	}{
		{"zero flits", shape(0, 1), "invalid shape"},
		{"zero max packet", shape(2, 0), "invalid shape"},
		{"flit bomb", shape(1<<30, 2), "exceeds remaining"},
		{"unsorted", func(c *snapshot.Codec) { snaptest.Put(c.Int, 2); msg(m7)(c); msg(m3)(c) }, "not sorted"},
		{"truncated", func(c *snapshot.Codec) { snaptest.Put(c.Int, 3); msg(m3)(c) }, "snapshot:"},
		{"empty", func(c *snapshot.Codec) {}, "snapshot:"},
		{"source terminal", mutated(&m3.Src, int32(testBounds.Terminals)), "Message.Src 4 out of range"},
		{"destination terminal", mutated(&m3.Dst, -1), "Message.Dst -1 out of range"},
		{"application", mutated(&m3.App, int32(testBounds.Apps)), "Message.App 2 out of range"},
		{"flit VC", mutated(&m3.Packet(1).Flit(0).VC, int32(testBounds.VCs)), "Flit.VC 3 out of range"},
		{"flit VC below none", mutated(&m3.Packet(0).Flit(1).VC, -2), "Flit.VC -2 out of range"},
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
	// -1 is a flit's VC before it wins one at the interface: legal.
	if err := load(mutated(&m3.Packet(0).Flit(0).VC, -1)); err != nil {
		t.Errorf("uninjected flit (VC -1) rejected: %v", err)
	}
}

func TestMessageTablePanics(t *testing.T) {
	tab := NewMessageTable()
	tab.Add(testMessage(nil, 1))
	mustPanicContains(t, "share an ID", func() { tab.Add(testMessage(nil, 1)) })
	stranger := testMessage(nil, 2)
	c := snapshot.NewSaver()
	f, p := stranger.Packet(0).Head(), stranger.Packet(0)
	mustPanicContains(t, "not in the checkpoint table", func() { tab.Flit(c, &f) })
	mustPanicContains(t, "not in the checkpoint table", func() { tab.Packet(c, &p) })
}

func mustPanicContains(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	fn()
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
