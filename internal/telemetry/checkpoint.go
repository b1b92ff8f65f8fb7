package telemetry

import (
	"sort"
	"sync/atomic"

	"supersim/internal/snapshot"
)

// Checkpoint state for the observability subsystem. The registry serializes
// every metric's identity (name, component, vc, kind, scale) along with its
// value, so metrics registered dynamically during the run (the span
// histograms) are re-created at restore; construction-time metrics are
// matched through the registry's idempotent registration. Wall-clock progress
// bookkeeping and the output streams themselves are not state — a restored
// run re-emits from the restore point on its own writers.

// stateAtomic codes an atomic counter through a plain temporary.
func stateAtomic(c *snapshot.Codec, a *atomic.Uint64) {
	v := a.Load()
	c.U64(&v)
	if c.Loading() {
		a.Store(v)
	}
}

// State codes every registered metric in deterministic (name, comp, vc)
// order: identity first, then value. Loading registers each identity before
// reading its value, so metrics absent from the rebuilt registry (registered
// dynamically after construction in the original run) are created; a kind
// clash with an existing registration is an error rather than the registry's
// usual panic.
func (r *Registry) State(c *snapshot.Codec) {
	var list []*metric
	if !c.Loading() {
		r.mu.Lock()
		list = append(list, r.sortLocked()...)
		r.mu.Unlock()
	}
	n := c.Len(len(list))
	for i := 0; i < n; i++ {
		var name, comp string
		var vc, kind int
		var scale float64
		if !c.Loading() {
			m := list[i]
			name, comp, vc, kind, scale = m.name, m.comp, m.vc, int(m.kind), m.scale
		}
		c.Str(&name)
		c.Str(&comp)
		c.Int(&vc)
		c.Int(&kind)
		c.F64(&scale)
		if c.Err() != nil {
			return
		}
		if !c.Loading() {
			list[i].state(c)
			continue
		}
		if kind < int(KindCounter) || kind > int(KindHist) {
			c.Failf("metric %s/%s has invalid kind %d", name, comp, kind)
			return
		}
		r.mu.Lock()
		existing, ok := r.index[metricKey(name, comp, vc)]
		r.mu.Unlock()
		if ok && existing.kind != Kind(kind) {
			c.Failf("metric %s/%s is a %v in the snapshot, %v in the rebuilt registry",
				name, comp, Kind(kind), existing.kind)
			return
		}
		r.register(name, comp, vc, Kind(kind), scale).state(c)
	}
}

// state codes one metric's value and its previous-bin baseline. Histograms
// store only their non-empty buckets, as ascending (index, count) pairs.
func (m *metric) state(c *snapshot.Codec) {
	switch m.kind {
	case KindCounter:
		stateAtomic(c, &m.c.v)
		c.U64(&m.lastC)
	case KindGauge:
		g := m.g.v.Load()
		c.I64(&g)
		if c.Loading() {
			m.g.v.Store(g)
		}
		c.I64(&m.lastG)
	case KindHist:
		nz := 0
		for b := range m.h.buckets {
			if c.Loading() {
				m.h.buckets[b].Store(0)
			} else if m.h.Bucket(b) != 0 {
				nz++
			}
		}
		nz = c.Len(nz)
		b := -1
		for j := 0; j < nz; j++ {
			if !c.Loading() {
				for b++; m.h.Bucket(b) == 0; b++ {
				}
			}
			c.Index(&b, histBuckets, "histogram bucket index")
			if c.Err() != nil {
				return
			}
			stateAtomic(c, &m.h.buckets[b])
		}
		stateAtomic(c, &m.h.count)
		stateAtomic(c, &m.h.sum)
		c.U64(&m.lastH)
	}
}

// State codes the telemetry hub: scheduling identity, the baseline flag for
// the next snapshot bin, the workload phase, the registry, and the span
// recorder's in-flight state.
func (t *Telemetry) State(c *snapshot.Codec) {
	t.OrderState(c, t)
	c.Bool(&t.first)
	t.mu.Lock()
	c.Str(&t.phase)
	t.mu.Unlock()
	t.reg.State(c)
	hasSpans := t.opts.Spans != nil
	c.Bool(&hasSpans)
	if c.Err() == nil && hasSpans != (t.opts.Spans != nil) {
		c.Failf("snapshot spans state %v, rebuilt telemetry %v", hasSpans, t.opts.Spans != nil)
		return
	}
	if hasSpans {
		t.opts.Spans.state(c, t.apps)
	}
}

// state codes the span recorder's open spans (sorted by message ID so the
// bytes are independent of table layout) and the finished record count. An
// open span's app and hop index the histogram table and its per-hop record, so
// loading range-checks them against the workload's application count and the
// record. The histogram table rebuilds lazily against the restored registry;
// the JSONL stream is output, not state.
func (sp *Spans) state(c *snapshot.Codec, apps int) {
	var open []*msgSpan
	if !c.Loading() {
		open = make([]*msgSpan, 0, sp.live.n)
		for _, e := range sp.live.slots {
			if e.s != nil {
				open = append(open, e.s)
			}
		}
		sort.Slice(open, func(i, j int) bool { return open[i].rec.Msg < open[j].rec.Msg })
	}
	n := c.Len(len(open))
	if c.Loading() {
		sp.live = spanTable{}
	}
	for i := 0; i < n; i++ {
		var s *msgSpan
		if c.Loading() {
			s = &msgSpan{}
		} else {
			s = open[i]
		}
		c.U64(&s.rec.Msg)
		c.Index(&s.rec.App, apps, "span app")
		c.Int(&s.rec.Src)
		c.Int(&s.rec.Dst)
		c.U64(&s.rec.Queue)
		snapshot.Slice(c, &s.rec.PerHop)
		for h := range s.rec.PerHop {
			hop := &s.rec.PerHop[h]
			c.U64(&hop.VCAlloc)
			c.U64(&hop.SWAlloc)
			c.U64(&hop.Xbar)
			c.U64(&hop.Output)
			c.U64(&hop.Wire)
		}
		snapshot.Uint(c, &s.lastT)
		c.Index(&s.hop, len(s.rec.PerHop)+1, "span hop")
		if !c.Loading() {
			continue
		}
		if c.Err() != nil {
			return
		}
		if sp.live.get(s.rec.Msg) != nil {
			c.Failf("duplicate open span for message %d", s.rec.Msg)
			return
		}
		sp.live.put(s.rec.Msg, s)
	}
	stateAtomic(c, &sp.records)
}
