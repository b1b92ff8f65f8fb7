package verify

// CreditLedger mirrors one upstream per-VC credit counter (a router output
// port's or an interface's downstream credits). Every debit and credit
// reports the component's own counter value after the operation; the ledger
// maintains its independent mirror and panics the moment the two diverge or
// either bound (zero, capacity) is violated. This catches flipped, skipped
// or duplicated credit updates at the first operation after the bug, not at
// drain time.
//
// A nil ledger — what a nil Verifier's NewCreditLedger returns — checks
// nothing: components keep whatever the constructor gave them and call Debit
// and Credit unguarded. The same holds for BufferLedger.
type CreditLedger struct {
	v      *Verifier
	name   string
	cap    int
	mirror []int // per VC, counts available credits
}

// NewCreditLedger registers a credit counter mirror for a component. owner
// and suffix together name the counter in diagnostics (e.g. "router_3" and
// ".out2"); they are joined here, not by the caller, so a component whose
// verifier is nil does not build a name nobody reads. capacity is the
// downstream buffer depth per VC, the initial credit count.
func (v *Verifier) NewCreditLedger(owner, suffix string, vcs, capacity int) *CreditLedger {
	if v == nil {
		return nil
	}
	if vcs <= 0 || capacity <= 0 {
		panic("verify: credit ledger needs positive vcs and capacity")
	}
	cl := &CreditLedger{v: v, name: owner + suffix, cap: capacity, mirror: make([]int, vcs)}
	for i := range cl.mirror {
		cl.mirror[i] = capacity
	}
	v.credits = append(v.credits, cl)
	return cl
}

// Debit records the component consuming one credit on vc; have is the
// component's counter value after its own decrement.
func (cl *CreditLedger) Debit(vc, have int) {
	if cl != nil {
		cl.debit(vc, have)
	}
}

func (cl *CreditLedger) debit(vc, have int) {
	cl.mirror[vc]--
	if cl.mirror[vc] < 0 {
		cl.v.Panicf("%s vc %d: credit debit below zero — downstream buffer overcommitted", cl.name, vc)
	}
	if have != cl.mirror[vc] {
		cl.v.Panicf("%s vc %d: credit counter diverged on debit: component has %d, ledger has %d",
			cl.name, vc, have, cl.mirror[vc])
	}
	cl.v.activity.Add(1)
}

// Credit records a credit returning on vc; have is the component's counter
// value after its own increment.
func (cl *CreditLedger) Credit(vc, have int) {
	if cl != nil {
		cl.credit(vc, have)
	}
}

func (cl *CreditLedger) credit(vc, have int) {
	cl.mirror[vc]++
	if cl.mirror[vc] > cl.cap {
		cl.v.Panicf("%s vc %d: credits exceed capacity %d — credit duplicated", cl.name, vc, cl.cap)
	}
	if have != cl.mirror[vc] {
		cl.v.Panicf("%s vc %d: credit counter diverged on credit: component has %d, ledger has %d",
			cl.name, vc, have, cl.mirror[vc])
	}
	cl.v.activity.Add(1)
}

// BufferLedger tracks one downstream input buffer's per-VC occupancy against
// its capacity — the other endpoint of the credit loop. Arrivals that
// overrun capacity or frees below zero panic immediately.
type BufferLedger struct {
	v    *Verifier
	name string
	cap  int
	occ  []int
}

// NewBufferLedger registers an input buffer for a component. owner and
// suffix together name the buffer in diagnostics (e.g. "router_3" and
// ".in1"), joined here as in NewCreditLedger; capacity is the per-VC depth in
// flits.
func (v *Verifier) NewBufferLedger(owner, suffix string, vcs, capacity int) *BufferLedger {
	if v == nil {
		return nil
	}
	if vcs <= 0 || capacity <= 0 {
		panic("verify: buffer ledger needs positive vcs and capacity")
	}
	bl := &BufferLedger{v: v, name: owner + suffix, cap: capacity, occ: make([]int, vcs)}
	v.buffers = append(v.buffers, bl)
	return bl
}

// Arrive records a flit entering the buffer on vc.
func (bl *BufferLedger) Arrive(vc int) {
	if bl != nil {
		bl.arrive(vc)
	}
}

func (bl *BufferLedger) arrive(vc int) {
	bl.occ[vc]++
	if bl.occ[vc] > bl.cap {
		bl.v.Panicf("%s vc %d: buffer overrun: %d flits in a %d-deep buffer — upstream sent without credit",
			bl.name, vc, bl.occ[vc], bl.cap)
	}
	bl.v.activity.Add(1)
}

// Free records a buffer slot being released on vc (a credit sent upstream).
func (bl *BufferLedger) Free(vc int) {
	if bl != nil {
		bl.free(vc)
	}
}

func (bl *BufferLedger) free(vc int) {
	bl.occ[vc]--
	if bl.occ[vc] < 0 {
		bl.v.Panicf("%s vc %d: buffer freed below zero — credit sent for a flit that never arrived",
			bl.name, vc)
	}
	bl.v.activity.Add(1)
}
