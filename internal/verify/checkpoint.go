package verify

import (
	"supersim/internal/snapshot"
)

// Checkpoint state for the verification subsystem. The per-flit in-flight
// marks travel with their messages (types checkpoint), so only the global
// counters live here.

// State codes the verifier's mutable state; loading runs on a freshly
// attached verifier.
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
	}
}
