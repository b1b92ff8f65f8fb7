package workload

import "supersim/internal/snapshot"

// State codes the workload state machine: the handshake phase and
// per-application signal flags, the message ID allocator, pool lifecycle
// counters, and phase timestamps. Application state follows, in registration
// order; an application that does not implement snapshot.Stater makes the
// whole configuration non-checkpointable.
func (w *Workload) State(c *snapshot.Codec) {
	w.OrderState(c, w)
	snapshot.Sint(c, &w.phase)
	if c.Loading() && c.Err() == nil && (w.phase < Warming || w.phase > Draining) {
		c.Failf("workload phase %d out of range", int(w.phase))
		return
	}
	c.FixedLen(len(w.apps), "workload applications")
	for i := range w.apps {
		c.Bool(&w.ready[i])
		c.Bool(&w.complete[i])
		c.Bool(&w.done[i])
	}
	c.Int(&w.pending)
	c.U64(&w.msgID)
	w.pool.State(c)
	for i := range w.PhaseTimes {
		snapshot.Uint(c, &w.PhaseTimes[i])
	}
	for i, a := range w.apps {
		st, ok := a.(snapshot.Stater)
		if !ok {
			c.Failf("application %d (%T) is not checkpointable", i, a)
			return
		}
		st.State(c)
	}
}
