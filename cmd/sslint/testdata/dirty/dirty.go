// Package dirty is a driver-test fixture with exactly two findings: a field
// its checkpoint codec forgets and an unused allow. It is never part of the
// build.
package dirty

import "supersim/internal/snapshot"

type counter struct {
	n    uint64
	lost uint64
}

func (c *counter) bump() { c.n++; c.lost++ }

func (c *counter) State(s *snapshot.Codec) { s.U64(&c.n) }

//sslint:allow determinism — fixture: deliberately unused
func quiet() {}
