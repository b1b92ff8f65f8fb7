// Package snaptest holds the three helpers every package's checkpoint tests
// share: run a State walk in one direction, and write literals into a stream
// when hand-crafting a corrupted one.
package snaptest

import "supersim/internal/snapshot"

// Save returns the bytes a saving walk produces.
func Save(walk func(c *snapshot.Codec)) []byte {
	c := snapshot.NewSaver()
	walk(c)
	return c.Bytes()
}

// Load runs a loading walk over data and returns the codec's error.
func Load(data []byte, walk func(c *snapshot.Codec)) error {
	c := snapshot.NewLoader(data)
	walk(c)
	return c.Err()
}

// Put codes one literal through a pointer-taking primitive: Put(c.U64, 7).
func Put[T any](prim func(*T), v T) { prim(&v) }
