// Package lintfixture exercises the snapshotcomplete analyzer: a State method
// that mentions every mutable field passes, a drifted struct is flagged, and
// the //sslint:nosnapshot directive exempts (only) genuinely ephemeral
// fields. Never part of the build.
package lintfixture

import "supersim/internal/snapshot"

// rec is the well-behaved case: every mutable field is in the one State
// walk, and the ephemeral scratch field carries a justified nosnapshot.
type rec struct {
	count uint64
	label string
	open  bool
	//sslint:nosnapshot — derived cache, rebuilt on first use
	cache []int
	seed  uint64 // set only by newRec: configuration, auto-exempt
}

func newRec(seed uint64) *rec { return &rec{seed: seed} }

func (r *rec) bump() {
	r.count++
	r.open = true
	r.label = "x"
	r.cache = append(r.cache, 1)
}

func (r *rec) State(c *snapshot.Codec) {
	c.U64(&r.count)
	c.Str(&r.label)
	c.Bool(&r.open)
}

// recDrift is rec after someone adds a mutable field without touching State
// — the drift the rule exists to catch.
type recDrift struct {
	count uint64
	extra int // want `field recDrift\.extra is mutated by methods of this package but never serialized`
}

func (r *recDrift) bump() {
	r.count++
	r.extra++
}

func (r *recDrift) State(c *snapshot.Codec) {
	c.U64(&r.count)
}

// resetOnLoad touches its derived field only in the loading direction: the
// field is accounted for, so no finding and no directive.
type resetOnLoad struct {
	samples []int
	sorted  []int
}

func (r *resetOnLoad) add(v int) { r.samples = append(r.samples, v); r.sorted = nil }

func (r *resetOnLoad) State(c *snapshot.Codec) {
	snapshot.Slice(c, &r.samples)
	for i := range r.samples {
		c.Int(&r.samples[i])
	}
	if c.Loading() {
		r.sorted = nil
	}
}

// uncoded has mutable state and no codec method at all: it is not a subject
// of the audit (nothing claims to checkpoint it), so it produces nothing.
type uncoded struct {
	n int
}

func (u *uncoded) touch() { u.n++ }

// overSuppressed marks a field nosnapshot even though State serializes it —
// the directive is stale and must go.
type overSuppressed struct {
	//sslint:nosnapshot — stale claim, State does cover this field // want `marked //sslint:nosnapshot but the codec serializes it`
	n uint64
}

func (o *overSuppressed) touch() { o.n++ }

func (o *overSuppressed) State(c *snapshot.Codec) {
	c.U64(&o.n)
}
