package crossbar

import "supersim/internal/snapshot"

// State codes the per-output rate-limit windows.
func (x *Crossbar) State(c *snapshot.Codec) {
	c.FixedLen(len(x.windowStart), "crossbar outputs")
	for i := range x.windowStart {
		snapshot.Uint(c, &x.windowStart[i])
		c.Int(&x.windowCount[i])
	}
}
