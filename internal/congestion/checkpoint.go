package congestion

import "supersim/internal/snapshot"

// StateTracker codes a congestion tracker's mutable state behind a kind tag,
// dispatching on the concrete type; a loaded tag that names a different kind
// than the rebuilt router's tracker is a component-graph mismatch. Trackers
// registered by other packages must implement snapshot.Stater to be
// checkpointable.
func StateTracker(c *snapshot.Codec, t Tracker) {
	var kind string
	var st snapshot.Stater
	switch v := t.(type) {
	case *CreditSensor:
		kind, st = "credit", v
	case NullSensor:
		kind = "null"
	case snapshot.Stater:
		kind, st = "custom", v
	default:
		c.Failf("congestion tracker %T is not checkpointable", t)
		return
	}
	got := kind
	c.Str(&got)
	if c.Err() == nil && got != kind {
		c.Failf("congestion sensor is %q in snapshot, %s in rebuilt router", got, kind)
		return
	}
	if st != nil {
		st.State(c)
	}
}

// State codes the credit sensor: raw occupancy counters and the
// delayed-visibility histories of the granularity the routing engines read.
func (cs *CreditSensor) State(c *snapshot.Codec) {
	c.FixedLen(len(cs.outputOcc), "credit sensor slots")
	for i := range cs.outputOcc {
		c.Int(&cs.outputOcc[i])
		c.Int(&cs.downUsed[i])
	}
	c.FixedLen(len(cs.vals), "credit sensor histories")
	for i := range cs.vals {
		cs.vals[i].state(c)
	}
}

func (dv *DelayedValue) state(c *snapshot.Codec) {
	snapshot.Slice(c, &dv.hist)
	if c.Loading() && c.Err() == nil && len(dv.hist) == 0 {
		// Get reads the newest entry unconditionally.
		c.Failf("delayed value with empty history")
	}
	for i := range dv.hist {
		snapshot.Uint(c, &dv.hist[i].t)
		c.F64(&dv.hist[i].v)
	}
}
