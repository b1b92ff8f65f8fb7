package stats

import "supersim/internal/snapshot"

// State codes the recorder's samples. The sorted latency vector is a lazily
// derived view, so only the raw samples are stored.
func (r *Recorder) State(c *snapshot.Codec) {
	snapshot.Slice(c, &r.samples)
	if c.Loading() {
		r.sorted = nil
		r.dirty = true
	}
	for i := range r.samples {
		s := &r.samples[i]
		snapshot.Uint(c, &s.Start)
		snapshot.Uint(c, &s.End)
		c.Int(&s.Flits)
		c.Int(&s.Hops)
		c.Bool(&s.NonMinimal)
		c.Int(&s.App)
		c.Int(&s.Src)
		c.Int(&s.Dst)
		if c.Loading() && c.Err() == nil && s.End < s.Start {
			c.Failf("sample %d ends (%d) before it starts (%d)", i, s.End, s.Start)
			return
		}
	}
}
