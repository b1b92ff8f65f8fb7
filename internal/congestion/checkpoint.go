package congestion

import "supersim/internal/snapshot"

// State codes a router's sensor, nil when its routing reads none: whether it
// has one, then each read index's current count and, under a sensing
// latency, the changes the visible counts do not show yet. The visible
// counts are not coded; loading derives them as the current counts less
// those changes. A snapshot and a rebuilt router that disagree on having a
// sensor come from different component graphs.
func (cs *CreditSensor) State(c *snapshot.Codec) {
	built := cs != nil
	c.Bool(&built)
	if c.Err() == nil && built != (cs != nil) {
		c.Failf("congestion sensor built %v in snapshot, %v in rebuilt router", built, cs != nil)
	}
	if cs == nil || c.Err() != nil {
		return
	}
	c.FixedLen(len(cs.cur), "congestion sensor counts")
	for i := range cs.cur {
		c.Int(&cs.cur[i])
		if c.Loading() && c.Err() == nil && cs.cur[i] < 0 {
			c.Failf("congestion sensor count %d is negative", i)
		}
	}
	if cs.latency == 0 {
		return
	}
	live := cs.log.Live()
	snapshot.Slice(c, &live)
	if c.Loading() {
		cs.log.Reset(live)
		copy(cs.vis, cs.cur)
	}
	for i := range live {
		ch := &live[i]
		snapshot.Uint(c, &ch.at)
		if c.Loading() && c.Err() == nil && i > 0 && ch.at < live[i-1].at {
			c.Failf("congestion log entry %d is older than the one ahead of it", i)
		}
		index := int(ch.index)
		c.Index(&index, len(cs.cur), "congestion log index")
		ch.index = int32(index)
		snapshot.Sint(c, &ch.delta)
		if c.Loading() && c.Err() == nil {
			cs.vis[ch.index] -= int(ch.delta)
		}
	}
	if !c.Loading() || c.Err() != nil {
		return
	}
	for i, v := range cs.vis {
		if v < 0 {
			c.Failf("congestion sensor visible count %d is negative", i)
			return
		}
	}
}
