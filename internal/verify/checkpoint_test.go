package verify

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
)

// buildLedgers attaches a verifier with one credit and one buffer ledger,
// the registration shape every checkpoint test restores into.
func buildLedgers(epoch sim.Tick) (*Verifier, *CreditLedger, *BufferLedger) {
	s := sim.NewSimulator(1)
	v := Attach(s, Options{WatchdogEpoch: epoch})
	cl := v.NewCreditLedger("router_0", ".out1", 2, 8)
	bl := v.NewBufferLedger("router_1", ".in0", 2, 8)
	return v, cl, bl
}

// walk codes a verifier after its simulator, as the simulation's walk does.
func walk(v *Verifier) func(*snapshot.Codec) {
	return func(c *snapshot.Codec) {
		v.Sim().State(c)
		v.State(c)
	}
}

func saveVerifier(v *Verifier) []byte { return snaptest.Save(walk(v)) }

func TestVerifierStateRoundTrip(t *testing.T) {
	v, cl, bl := buildLedgers(100)
	// Drive the ledgers through their public operations so the mirrors hold
	// mid-run values, then set the global counters directly.
	cl.Debit(0, 7)
	cl.Debit(0, 6)
	cl.Debit(1, 7)
	cl.Credit(1, 8)
	bl.Arrive(0)
	bl.Arrive(0)
	bl.Arrive(1)
	bl.Free(1)
	v.injected = 12
	v.retired = 5
	v.lastActivity = 42
	data := saveVerifier(v)

	got, gcl, gbl := buildLedgers(100)
	d := snapshot.NewLoader(data)
	if walk(got)(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.Injected() != 12 || got.Retired() != 5 || got.InFlight() != 7 {
		t.Fatalf("counters: injected %d retired %d", got.Injected(), got.Retired())
	}
	if gcl.mirror[0] != 6 || gcl.mirror[1] != 8 {
		t.Fatalf("credit mirror %v", gcl.mirror)
	}
	if gbl.occ[0] != 2 || gbl.occ[1] != 0 {
		t.Fatalf("buffer occupancy %v", gbl.occ)
	}
	if !bytes.Equal(saveVerifier(got), data) {
		t.Fatal("re-saved verifier state is not byte-identical")
	}
	// The restored mirrors must keep checking: the next debit matches the
	// component counter the original run would present.
	gcl.Debit(0, 5)
}

func TestVerifierLoadRejectsMismatchedBuild(t *testing.T) {
	v, _, _ := buildLedgers(100)
	v.injected, v.retired = 3, 1
	data := saveVerifier(v)

	build := func(fn func(v *Verifier)) *Verifier {
		s := sim.NewSimulator(1)
		rv := Attach(s, Options{WatchdogEpoch: 100})
		fn(rv)
		return rv
	}
	cases := []struct {
		name string
		v    *Verifier
		want string
	}{
		{"watchdog off", func() *Verifier {
			s := sim.NewSimulator(1)
			rv := Attach(s, Options{})
			rv.NewCreditLedger("router_0", ".out1", 2, 8)
			rv.NewBufferLedger("router_1", ".in0", 2, 8)
			return rv
		}(), "watchdog state"},
		{"missing credit ledger", build(func(rv *Verifier) {
			rv.NewBufferLedger("router_1", ".in0", 2, 8)
		}), "credit ledgers"},
		{"credit name mismatch", build(func(rv *Verifier) {
			rv.NewCreditLedger("router_9", ".out1", 2, 8)
			rv.NewBufferLedger("router_1", ".in0", 2, 8)
		}), "credit ledger mismatch"},
		{"credit vc mismatch", build(func(rv *Verifier) {
			rv.NewCreditLedger("router_0", ".out1", 3, 8)
			rv.NewBufferLedger("router_1", ".in0", 2, 8)
		}), "VCs"},
		{"missing buffer ledger", build(func(rv *Verifier) {
			rv.NewCreditLedger("router_0", ".out1", 2, 8)
		}), "buffer ledgers"},
		{"buffer name mismatch", build(func(rv *Verifier) {
			rv.NewCreditLedger("router_0", ".out1", 2, 8)
			rv.NewBufferLedger("router_9", ".in0", 2, 8)
		}), "buffer ledger mismatch"},
		{"buffer vc mismatch", build(func(rv *Verifier) {
			rv.NewCreditLedger("router_0", ".out1", 2, 8)
			rv.NewBufferLedger("router_1", ".in0", 3, 8)
		}), "VCs"},
	}
	for _, tc := range cases {
		err := snaptest.Load(data, walk(tc.v))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestVerifierLoadRejectsTruncation(t *testing.T) {
	v, _, _ := buildLedgers(100)
	data := saveVerifier(v)
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		got, _, _ := buildLedgers(100)
		if err := snaptest.Load(data[:n], walk(got)); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
