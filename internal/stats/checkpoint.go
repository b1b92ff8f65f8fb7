package stats

import "supersim/internal/snapshot"

// State codes the recorder's samples: the count, then each sample's eight
// fields at the width the Sample struct declares, whatever the row stores.
// Loading fills the chunks in place, keeping the ones it already has. The
// sorted latency vector is a lazily derived view and is not stored.
func (r *Recorder) State(c *snapshot.Codec) {
	n := c.Len(r.n)
	if c.Loading() {
		r.n, r.sorted = 0, nil
	}
	var s Sample
	for i := 0; i < n; i++ {
		if !c.Loading() {
			s = r.row(i).sample()
		}
		snapshot.Uint(c, &s.Start)
		snapshot.Uint(c, &s.End)
		c.Int(&s.Flits)
		c.Int(&s.Hops)
		c.Bool(&s.NonMinimal)
		c.Int(&s.App)
		c.Int(&s.Src)
		c.Int(&s.Dst)
		if c.Loading() {
			w := pack(s)
			if c.Err() != nil {
				return
			}
			if !w.holds(s) {
				c.Failf("sample %d: %v", i, s.Check())
				return
			}
			r.push(w)
		}
	}
}
