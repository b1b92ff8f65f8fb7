// Codec shapes beyond the plain State method: a container that creates its
// codecs locally and shares one walk between both directions (core.Snapshot /
// core.Restore style), helper functions that carry the codec, field coverage
// through method delegation, and the delA/delB/delC family, which statically
// enumerates every single-line deletion of the full walk — each deletion must
// produce a finding.
package lintfixture

import "supersim/internal/snapshot"

// box serializes through locally created codecs; both directions run the one
// state walk.
type box struct {
	v uint64
	w uint64
}

func (b *box) mutate() { b.v++; b.w++ }

func (b *box) state(c *snapshot.Codec) {
	c.U64(&b.v)
	c.U64(&b.w)
}

func (b *box) Snapshot() []byte {
	c := snapshot.NewSaver()
	b.state(c)
	return c.Bytes()
}

func (b *box) Restore(data []byte) error {
	c := snapshot.NewLoader(data)
	b.state(c)
	return c.Done()
}

// blob's bytes move through a free helper that receives the codec as an
// argument; the field is mentioned at the call site.
type blob struct {
	xs []int
}

func (b *blob) grow() { b.xs = append(b.xs, 1) }

func (b *blob) State(c *snapshot.Codec) {
	stateInts(c, &b.xs)
}

func stateInts(c *snapshot.Codec, xs *[]int) {
	snapshot.Slice(c, xs)
	for i := range *xs {
		c.Int(&(*xs)[i])
	}
}

// bag hands itself to a codec-carrying free function: the fields are
// mentioned only inside the helper, which the audit follows.
type bag struct {
	a int
	b int // want `field bag\.b is mutated by methods of this package but never serialized`
}

func (g *bag) touch() { g.a++; g.b++ }

func (g *bag) State(c *snapshot.Codec) { stateBag(c, g) }

func stateBag(c *snapshot.Codec, g *bag) {
	c.Int(&g.a)
}

// journal's sealed field is never mentioned by State itself — coverage flows
// through the seal() delegation to a method of the same type, the way
// Telemetry.State covers its lanes via seal.
type journal struct {
	entries []int
	sealed  bool
}

func (j *journal) add(v int) { j.entries = append(j.entries, v); j.sealed = false }

func (j *journal) seal() { j.sealed = true }

func (j *journal) State(c *snapshot.Codec) {
	j.seal()
	stateInts(c, &j.entries)
}

// full is the reference walk for the deletion family below: three fields in
// one State method. No findings.
type full struct {
	a uint64
	b uint64
	c uint64
}

func (f *full) touch() { f.a++; f.b++; f.c++ }

func (f *full) State(c *snapshot.Codec) {
	c.U64(&f.a)
	c.U64(&f.b)
	c.U64(&f.c)
}

// delA is full with the first line deleted.
type delA struct {
	a uint64 // want `field delA\.a is mutated by methods of this package but never serialized`
	b uint64
	c uint64
}

func (f *delA) touch() { f.a++; f.b++; f.c++ }

func (f *delA) State(c *snapshot.Codec) {
	c.U64(&f.b)
	c.U64(&f.c)
}

// delB is full with the middle line deleted.
type delB struct {
	a uint64
	b uint64 // want `field delB\.b is mutated by methods of this package but never serialized`
	c uint64
}

func (f *delB) touch() { f.a++; f.b++; f.c++ }

func (f *delB) State(c *snapshot.Codec) {
	c.U64(&f.a)
	c.U64(&f.c)
}

// delC is full with the last line deleted.
type delC struct {
	a uint64
	b uint64
	c uint64 // want `field delC\.c is mutated by methods of this package but never serialized`
}

func (f *delC) touch() { f.a++; f.b++; f.c++ }

func (f *delC) State(c *snapshot.Codec) {
	c.U64(&f.a)
	c.U64(&f.b)
}

// A nosnapshot that covers no audited struct field is rot and is reported
// when the snapshotcomplete analyzer runs with directive checking.
//
//sslint:nosnapshot — attached to nothing // want `does not cover any audited struct field`
var strayDirective = 0
