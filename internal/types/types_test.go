package types

import (
	"testing"
	"testing/quick"
)

func TestNewMessageSingleFlit(t *testing.T) {
	m := NewMessage(1, 0, 3, 7, 1, 16)
	if m.NumPackets() != 1 {
		t.Fatalf("packets = %d", m.NumPackets())
	}
	p := m.Packet(0)
	if p.Size() != 1 {
		t.Fatalf("size = %d", p.Size())
	}
	f := p.Flit(0)
	if !f.Head || !f.Tail {
		t.Fatal("single flit must be head and tail")
	}
	if p.Head() != f || p.Tail() != f {
		t.Fatal("Head/Tail accessors wrong")
	}
	if m.Src != 3 || m.Dst() != 7 || p.Dst() != 7 || m.TotalFlits() != 1 {
		t.Fatal("message fields wrong")
	}
	if p.Intermediate != -1 {
		t.Fatal("Intermediate should start -1")
	}
}

func TestNewMessageSegmentation(t *testing.T) {
	// 10 flits, packets of up to 4 -> 4+4+2
	m := NewMessage(2, 1, 0, 1, 10, 4)
	if m.NumPackets() != 3 {
		t.Fatalf("packets = %d", m.NumPackets())
	}
	sizes := []int{4, 4, 2}
	for i := 0; i < m.NumPackets(); i++ {
		p := m.Packet(i)
		if p.Size() != sizes[i] {
			t.Fatalf("packet %d size %d, want %d", i, p.Size(), sizes[i])
		}
		if int(p.ID) != i || p.Msg != m || p.Dst() != 1 {
			t.Fatal("packet identity wrong")
		}
		for j := 0; j < p.Size(); j++ {
			f := p.Flit(j)
			if int(f.ID) != j || f.Pkt != p {
				t.Fatal("flit identity wrong")
			}
			if f.Head != (j == 0) || f.Tail != (j == p.Size()-1) {
				t.Fatalf("packet %d flit %d head/tail flags wrong", i, j)
			}
		}
	}
	if m.TotalFlits() != 10 {
		t.Fatalf("TotalFlits = %d", m.TotalFlits())
	}
}

func TestNewMessageExactMultiple(t *testing.T) {
	m := NewMessage(3, 0, 0, 1, 8, 4)
	if m.NumPackets() != 2 || m.Packet(0).Size() != 4 || m.Packet(1).Size() != 4 {
		t.Fatal("exact multiple segmentation wrong")
	}
}

func TestNewMessageInvalid(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMessage(1, 0, 0, 1, 0, 4) },
		func() { NewMessage(1, 0, 0, 1, -1, 4) },
		func() { NewMessage(1, 0, 0, 1, 4, 0) },
		// Beyond the int32 fields.
		func() { NewMessage(1, 0, 0, 1, 1<<31, 4) },
		func() { NewMessage(1, 1<<31, 0, 1, 1, 1) },
		func() { NewMessage(1, 0, 0, -1<<31-1, 1, 1) },
		func() { NewPool().NewMessage(1, 0, 1<<31, 1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMessageSegmentationProperty(t *testing.T) {
	prop := func(total8, max8 uint8) bool {
		total := int(total8%200) + 1
		max := int(max8%32) + 1
		m := NewMessage(9, 0, 0, 1, total, max)
		if m.TotalFlits() != total {
			return false
		}
		for i := 0; i < m.NumPackets(); i++ {
			p := m.Packet(i)
			if p.Size() > max || p.Size() == 0 {
				return false
			}
			if i < m.NumPackets()-1 && p.Size() != max {
				return false // only last packet may be short
			}
			if !p.Head().Head || !p.Tail().Tail {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketAge(t *testing.T) {
	m := NewMessage(1, 0, 0, 1, 2, 1)
	m.CreateTime = 12345
	if m.Packet(0).Age() != 12345 || m.Packet(1).Age() != 12345 {
		t.Fatal("Age should be message creation time")
	}
}

func TestStringForms(t *testing.T) {
	m := NewMessage(5, 0, 1, 2, 3, 2)
	if s := m.Packet(0).String(); s == "" {
		t.Fatal("empty packet string")
	}
	head := m.Packet(0).Flit(0)
	if got := head.String(); got == "" {
		t.Fatal("empty flit string")
	}
	solo := NewMessage(6, 0, 1, 2, 1, 1).Packet(0).Flit(0)
	for _, f := range []*Flit{head, m.Packet(0).Flit(1), solo} {
		_ = f.String() // head, tail and head+tail branches
	}
	body := NewMessage(7, 0, 1, 2, 3, 3).Packet(0).Flit(1)
	_ = body.String()
}

func TestOrderCheckerAcceptsInOrder(t *testing.T) {
	m := NewMessage(1, 0, 0, 5, 4, 4)
	c := NewOrderChecker(5)
	p := m.Packet(0)
	for i := 0; i < p.Size(); i++ {
		f := p.Flit(i)
		done := c.Check(f)
		if done != (i == 3) {
			t.Fatalf("Check(%d) done=%v", i, done)
		}
	}
	if c.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d", c.Outstanding())
	}
}

func TestOrderCheckerInterleavedPackets(t *testing.T) {
	// Flits of different packets may interleave; order within each packet
	// must hold.
	a := NewMessage(1, 0, 0, 5, 2, 2).Packet(0)
	b := NewMessage(2, 0, 0, 5, 2, 2).Packet(0)
	c := NewOrderChecker(5)
	c.Check(a.Flit(0))
	c.Check(b.Flit(0))
	if c.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d", c.Outstanding())
	}
	if !c.Check(b.Flit(1)) || !c.Check(a.Flit(1)) {
		t.Fatal("completion not reported")
	}
}

func TestOrderCheckerWrongDestination(t *testing.T) {
	m := NewMessage(1, 0, 0, 5, 1, 1)
	c := NewOrderChecker(6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected wrong-destination panic")
		}
	}()
	c.Check(m.Packet(0).Flit(0))
}

func TestOrderCheckerOutOfOrder(t *testing.T) {
	m := NewMessage(1, 0, 0, 5, 3, 3)
	c := NewOrderChecker(5)
	c.Check(m.Packet(0).Flit(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-order panic")
		}
	}()
	c.Check(m.Packet(0).Flit(2))
}

func TestOrderCheckerDuplicate(t *testing.T) {
	m := NewMessage(1, 0, 0, 5, 2, 2)
	c := NewOrderChecker(5)
	c.Check(m.Packet(0).Flit(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected duplicate panic")
		}
	}()
	c.Check(m.Packet(0).Flit(0))
}

// TestPoolReleaseOwnership: a pool ignores messages it did not hand out,
// whether another pool's or unpooled, so the owner can still release them.
func TestPoolReleaseOwnership(t *testing.T) {
	a, b := NewPool(), NewPool()
	m := a.NewMessage(1, 0, 0, 1, 1, 1)
	b.Release(m)
	b.Release(NewMessage(2, 0, 0, 1, 1, 1))
	a.Release(NewMessage(3, 0, 0, 1, 1, 1))
	if b.Stats().Releases != 0 || a.Stats().Releases != 0 {
		t.Fatalf("foreign or unpooled release counted: a %+v, b %+v", a.Stats(), b.Stats())
	}
	a.Release(m)
	if a.Stats().Releases != 1 {
		t.Fatalf("owner's release not counted: %+v", a.Stats())
	}
}

// TestPoolBucketsByShape: a packet size cap at or beyond the flit count
// builds one shape, so such messages share a free-list bucket.
func TestPoolBucketsByShape(t *testing.T) {
	p := NewPool()
	m := p.NewMessage(1, 0, 0, 1, 3, 8)
	p.Release(m)
	if got := p.NewMessage(2, 0, 0, 1, 3, 3); got != m {
		t.Fatal("3-flit message with cap 3 did not recycle the one built with cap 8")
	}
	p.Release(m)
	if got := p.NewMessage(3, 0, 0, 1, 3, 2); got == m || got.NumPackets() != 2 {
		t.Fatal("cap 2 (two packets) recycled the one-packet shape")
	}
}
