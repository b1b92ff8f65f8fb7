package verify

import (
	"supersim/internal/snapshot"
)

// Checkpoint state for the verification subsystem. Ledgers are registered at
// construction time in deterministic build order, so they are serialized by
// registration index; a name check on every ledger catches any mismatch
// between the snapshot and the rebuilt component graph. The per-flit
// in-flight marks travel with their messages (types checkpoint), so only the
// global counters and the mirrors live here.

// State codes the verifier's mutable state; loading runs on a freshly
// attached verifier whose ledgers were registered by an identical build.
func (v *Verifier) State(c *snapshot.Codec) {
	v.OrderState(c, v)
	c.U64(&v.injected)
	c.U64(&v.retired)
	c.U64(&v.activity)
	c.U64(&v.lastActivity)
	won := v.watchdogOn
	c.Bool(&won)
	if c.Err() == nil && won != v.watchdogOn {
		c.Failf("snapshot watchdog state %v, rebuilt verifier %v", won, v.watchdogOn)
		return
	}
	c.FixedLen(len(v.credits), "credit ledgers")
	for _, cl := range v.credits {
		stateLedger(c, "credit ledger", cl.name, cl.mirror)
	}
	c.FixedLen(len(v.buffers), "buffer ledgers")
	for _, bl := range v.buffers {
		stateLedger(c, "buffer ledger", bl.name, bl.occ)
	}
}

// stateLedger codes one ledger: its name (an identity check against the
// rebuilt ledger in the same registration slot) and its per-VC counters.
func stateLedger(c *snapshot.Codec, what, name string, perVC []int) {
	got := name
	c.Str(&got)
	if c.Err() == nil && got != name {
		c.Failf("%s mismatch: snapshot %q, rebuilt %q", what, got, name)
		return
	}
	vcs := len(perVC)
	c.Int(&vcs)
	if c.Err() == nil && vcs != len(perVC) {
		c.Failf("%s %s has %d VCs, snapshot says %d", what, name, len(perVC), vcs)
		return
	}
	for vc := range perVC {
		c.Int(&perVC[vc])
	}
}
