package types

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot/snaptest"
)

// TestMessageAllocations pins the layout's heap cost: a fresh 1-flit message
// is one object (packet 0 and its head flit are embedded), a 1-packet message
// of more flits adds the shape block and the body-flit block, a multi-packet
// one also the block of later packets, and a recycled message allocates
// nothing.
func TestMessageAllocations(t *testing.T) {
	for _, tc := range []struct {
		name          string
		flits, maxPkt int
		want          float64
	}{
		{"1 flit", 1, 1, 1},
		{"8 flits in 1 packet", 8, 8, 3},
		{"32 flits in packets of 4", 32, 4, 4},
	} {
		pool := NewPool()
		fresh := map[string]func(){
			"NewMessage":      func() { NewMessage(1, 0, 0, 1, tc.flits, tc.maxPkt) },
			"Pool.NewMessage": func() { pool.NewMessage(1, 0, 0, 1, tc.flits, tc.maxPkt) },
			"recycled": func() {
				pool.Release(pool.NewMessage(1, 0, 0, 1, tc.flits, tc.maxPkt))
			},
		}
		for ctor, fn := range fresh {
			want := tc.want
			if ctor == "recycled" {
				want = 0
			}
			if got := testing.AllocsPerRun(100, fn); got != want {
				t.Errorf("%s, %s: %v allocations, want %v", tc.name, ctor, got, want)
			}
		}
	}
}

// TestTrafficObjectSizes pins the traffic objects' sizes. A live
// single-flit message is exactly one Message, so its size is the memory each
// in-flight flit costs; a field that grows it past 128 bytes moves every
// message into the allocator's next size class (144). Flit and Packet are
// embedded in it, and Flit is also the element of every body block.
func TestTrafficObjectSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		want uintptr
	}{
		{"Message", reflect.TypeFor[Message](), 128},
		{"Packet", reflect.TypeFor[Packet](), 64},
		{"Flit", reflect.TypeFor[Flit](), 24},
	} {
		if got := tc.typ.Size(); got != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, got, tc.want)
		}
	}
}

// TestHopFieldsShareALine pins what a router hop on a single-flit message
// reads to one 64-byte line of it: packet 0's back-pointer to the message,
// head flit, routing state (hop count, intermediate, deroute flag, scratch)
// and destination all lie in bytes [64, 128) of the 128-byte Message.
// Objects of that size class start on a line boundary, so the range is one
// cache line; a field that leaves it costs every hop a second miss.
func TestHopFieldsShareALine(t *testing.T) {
	msg, pkt := reflect.TypeFor[Message](), reflect.TypeFor[Packet]()
	first, ok := msg.FieldByName("first")
	if !ok {
		t.Fatal("Message has no field first")
	}
	for _, name := range []string{"Msg", "head", "HopCount", "Intermediate", "NonMinimal", "Routing", "dst"} {
		f, ok := pkt.FieldByName(name)
		if !ok {
			t.Errorf("Packet has no field %s", name)
			continue
		}
		lo := first.Offset + f.Offset
		if hi := lo + f.Type.Size(); lo < 64 || hi > 128 {
			t.Errorf("packet 0's %s lies in bytes [%d, %d) of Message, want within [64, 128)", name, lo, hi)
		}
	}
}

type flitView struct {
	ID         int32
	Head, Tail bool
}

type packetView struct {
	ID, Size               int
	Dst                    int
	HopCount, Intermediate int32
	NonMinimal             bool
	Routing                RoutingScratch
	Times                  *PacketTimes // nil for a single-packet message
	RxNext                 int32
	Flits                  []flitView
}

type messageView struct {
	ID                      uint64
	App, Src                int32
	Dst                     int
	CreateTime, ReceiveTime sim.Tick
	Sampled                 bool
	RxRemaining             int32
	TotalFlits, MaxPkt      int
	Released                bool
	Packets                 []packetView
}

// view copies every simulation field of m, its packets and its flits into
// plain values. It leaves out what records host-memory reuse (the owning
// pool, the generation and the verification ledger's stamp), which the
// package documents as not state.
func view(m *Message) messageView {
	v := messageView{
		ID: m.ID, App: m.App, Src: m.Src, Dst: m.Dst(),
		CreateTime: m.CreateTime, ReceiveTime: m.ReceiveTime,
		Sampled: m.Sampled, RxRemaining: m.RxRemaining,
		TotalFlits: m.TotalFlits(), MaxPkt: m.maxPkt(), Released: m.released,
	}
	for i := 0; i < m.NumPackets(); i++ {
		p := m.Packet(i)
		pv := packetView{
			ID: int(p.ID), Size: p.Size(), Dst: p.Dst(), HopCount: p.HopCount,
			Intermediate: p.Intermediate, NonMinimal: p.NonMinimal, Routing: p.Routing,
			RxNext: p.rxNext,
		}
		if t := p.Times(); t != nil {
			pv.Times = new(PacketTimes)
			*pv.Times = *t
		}
		for j := 0; j < p.Size(); j++ {
			f := p.Flit(j)
			pv.Flits = append(pv.Flits, flitView{f.ID, f.Head, f.Tail})
		}
		v.Packets = append(v.Packets, pv)
	}
	return v
}

// checkLinks verifies the object graph: every packet points at m, every flit
// points at its packet, indices match positions, Head and Tail are the end
// flits, and no two flits share storage.
func checkLinks(t *testing.T, label string, m *Message) {
	t.Helper()
	seen := map[*Flit]bool{}
	for i := 0; i < m.NumPackets(); i++ {
		p := m.Packet(i)
		if p.Msg != m || int(p.ID) != i {
			t.Errorf("%s: Packet(%d) has Msg %p ID %d, want %p and %d", label, i, p.Msg, p.ID, m, i)
		}
		if p.Head() != p.Flit(0) || p.Tail() != p.Flit(p.Size()-1) {
			t.Errorf("%s: packet %d Head/Tail are not its end flits", label, i)
		}
		for j := 0; j < p.Size(); j++ {
			f := p.Flit(j)
			if f.Pkt != p || int(f.ID) != j {
				t.Errorf("%s: packet %d Flit(%d) has Pkt %p ID %d, want %p and %d", label, i, j, f.Pkt, f.ID, p, j)
			}
			if seen[f] {
				t.Errorf("%s: packet %d Flit(%d) shares storage with another flit", label, i, j)
			}
			seen[f] = true
		}
	}
	if len(seen) != m.TotalFlits() {
		t.Errorf("%s: %d distinct flits, TotalFlits %d", label, len(seen), m.TotalFlits())
	}
}

// dirty sets every mutable field of m away from its initial value, as a
// delivered message leaves it. The verification ledger stays clear: a
// message with flits in flight must not be released.
func dirty(m *Message) {
	m.CreateTime, m.ReceiveTime = 10, 12
	m.Sampled, m.RxRemaining = true, 0
	for i := 0; i < m.NumPackets(); i++ {
		p := m.Packet(i)
		p.HopCount, p.Intermediate, p.NonMinimal = 4, 2, true
		p.Routing = RoutingScratch{Valid: true, Phase: 2, Dateline: true}
		p.rxNext = 1
		if t := p.Times(); t != nil {
			*t = PacketTimes{Inject: sim.Tick(13 + i), Receive: sim.Tick(14 + 2*i)}
		}
	}
}

// TestMessageLayoutFieldForField builds each shape (one flit, one packet of
// many flits, whole packets, a short last packet, a cap beyond the flit
// count) four ways — fresh from a
// pool, recycled through it after a dirty first life, unpooled, and restored
// from a checkpoint of a fresh message — and requires them equal field for
// field, with an intact object graph. A checkpoint of a dirty message, whose
// packets have times when it has several, must restore equal to it too.
func TestMessageLayoutFieldForField(t *testing.T) {
	const id, app, src, dst = 42, 1, 2, 3
	for _, sh := range []struct{ flits, maxPkt int }{{1, 1}, {8, 8}, {8, 4}, {5, 2}, {3, 8}} {
		pool := NewPool()
		fresh := pool.NewMessage(id, app, src, dst, sh.flits, sh.maxPkt)
		want := view(fresh)

		first := pool.NewMessage(7, 0, 1, 0, sh.flits, sh.maxPkt)
		dirty(first)
		pool.Release(first)
		recycled := pool.NewMessage(id, app, src, dst, sh.flits, sh.maxPkt)
		if recycled != first {
			t.Fatalf("%d/%d: pool did not recycle the released message", sh.flits, sh.maxPkt)
		}

		refs := []*Packet{NewMessage(id, app, src, dst, sh.flits, sh.maxPkt).Packet(0)}
		data := snaptest.Save(walkRefs(NewMessageTable(nil, testBounds), refs))
		if err := snaptest.Load(data, walkRefs(NewMessageTable(pool, testBounds), refs)); err != nil {
			t.Fatal(err)
		}

		for _, tc := range []struct {
			name string
			m    *Message
		}{
			{"fresh", fresh},
			{"recycled", recycled},
			{"unpooled", NewMessage(id, app, src, dst, sh.flits, sh.maxPkt)},
			{"restored", refs[0].Msg},
		} {
			label := fmt.Sprintf("%d/%d %s", sh.flits, sh.maxPkt, tc.name)
			if v := view(tc.m); !reflect.DeepEqual(v, want) {
				t.Errorf("%s:\n got %+v\nwant %+v", label, v, want)
			}
			checkLinks(t, label, tc.m)
		}

		orig := NewMessage(id, app, src, dst, sh.flits, sh.maxPkt)
		dirty(orig)
		refs = []*Packet{orig.Packet(0)}
		data = snaptest.Save(walkRefs(NewMessageTable(nil, testBounds), refs))
		if err := snaptest.Load(data, walkRefs(NewMessageTable(pool, testBounds), refs)); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%d/%d restored dirty", sh.flits, sh.maxPkt)
		if v, want := view(refs[0].Msg), view(orig); !reflect.DeepEqual(v, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", label, v, want)
		}
		checkLinks(t, label, refs[0].Msg)
	}
}

// TestFreshMessageHeapBytes pins what a fresh pooled single-flit message
// costs the heap, size class included: the allocator's bytes over many
// draws, not the struct's Sizeof. It counts process-wide MemStats, so it
// must not run in parallel.
func TestFreshMessageHeapBytes(t *testing.T) {
	const n = 10000
	pool := NewPool()
	live := make([]*Message, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range live {
		live[i] = pool.NewMessage(uint64(i), 0, 0, 1, 1, 1)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got != 128 {
		t.Errorf("a fresh single-flit message takes %d heap bytes, want 128", got)
	}
	if got := after.Mallocs - before.Mallocs; got < n || got > n+n/100 {
		t.Errorf("%d draws made %d heap objects, want one each", n, got)
	}
	runtime.KeepAlive(live)
}
