package types

import "fmt"

// OrderChecker implements the framework's delivery error detection: every
// flit delivered to a destination is verified to have arrived at the right
// destination and in the right order with respect to the other flits of its
// packet. Terminals run one checker each; a violation panics, catching buggy
// component models early.
//
// The expected-flit cursor lives in the packet itself (Packet.rxNext) rather
// than in a checker-side map: a packet is only ever delivered to one
// terminal, and keeping the cursor inline removes a map operation per
// delivered flit from the ejection hot path.
type OrderChecker struct {
	terminal    int
	outstanding int // packets with partial deliveries
}

// NewOrderChecker creates a checker for the given terminal ID.
func NewOrderChecker(terminal int) *OrderChecker {
	return &OrderChecker{terminal: terminal}
}

// Check validates one delivered flit. It panics on a wrong destination, an
// out-of-order flit, or a duplicate delivery; it returns true when the flit
// is its packet's last (the packet completed in order).
func (c *OrderChecker) Check(f *Flit) bool {
	p := f.Pkt
	if p.Dst() != c.terminal {
		panic(fmt.Sprintf("types: %v delivered to terminal %d, want destination %d",
			f, c.terminal, p.Dst()))
	}
	want := p.rxNext
	if f.ID != want {
		panic(fmt.Sprintf("types: %v out of order at terminal %d: got flit %d, want %d",
			f, c.terminal, f.ID, want))
	}
	if f.ID == p.bodyLen {
		if !f.Tail {
			panic(fmt.Sprintf("types: %v is last flit but not marked tail", f))
		}
		if want > 0 {
			c.outstanding--
		}
		p.rxNext = 0 // rearm for pool reuse
		return true
	}
	if want == 0 {
		c.outstanding++
	}
	p.rxNext = want + 1
	return false
}

// Outstanding returns the number of packets with partial deliveries.
func (c *OrderChecker) Outstanding() int { return c.outstanding }
