// Package snapshot implements the wire codec for simulator checkpoints: a
// compact, versioned, deterministic binary format every stateful component
// serializes itself into (see the per-package checkpoint.go files and
// internal/core's container assembly).
//
// The codec is a leaf: it depends only on the standard library, so every
// package in the simulator — including internal/sim itself — can import it.
//
// # One walk, two directions
//
// A Codec either saves or loads, and every primitive takes a pointer: saving
// appends *p to the stream, loading overwrites *p from it. A component
// therefore describes its state once, in a single State(c *Codec) method
// that is both its encoder and its decoder — field set and field order
// cannot differ between the two directions because there is only one list.
// Work that belongs to one direction only (resetting derived caches,
// validating a restored value against the rebuilt component) sits under
// `if c.Loading()`. State runs on a freshly built component of the same
// configuration when loading, so it overwrites state rather than
// constructing it.
//
// # Format
//
// A snapshot is a byte stream of primitive values: unsigned varints, zigzag
// signed varints, fixed 8-byte float bits, length-prefixed blobs/strings, and
// single-byte booleans. There is no self-description; reader and writer must
// agree on the sequence, which is why the stream opens with a magic string
// and a schema version (Header) and why loaders fail fast on any version
// they do not know. Section tags (Section) are short embedded markers that
// turn a misaligned read into an immediate, located error instead of garbage
// values propagating downstream.
//
// # Error handling
//
// Errors are sticky: the first malformed, truncated, or out-of-bounds read
// records an error, and every subsequent read stores a zero value without
// advancing (Len returns 0, so count-driven loops do not run). Callers check
// Err once per logical unit rather than after every primitive. Loading never
// panics on arbitrary input — lengths and counts are bounds-checked against
// the remaining input before any allocation — which is fuzz-enforced by
// FuzzCodec. Failf records a semantic error in either direction.
//
// # Determinism
//
// Snapshot bytes are compared byte-for-byte by the import/export equivalence
// tests and by internal/core's TestEquivalenceMatrix, so State methods must
// be deterministic: iterate slices, or map keys in sorted order, never raw Go
// maps. A value that records how host memory was recycled (a free list, a
// hit count, a block's generation) is not state either: a restored run
// cannot reproduce it.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Magic opens every snapshot stream.
const Magic = "SSIMSNAP"

// Version is the schema version this build reads and writes. Loaders reject
// any other version (fail-fast forward compatibility): state layouts are not
// self-describing, so decoding a future layout would silently corrupt state.
const Version = 10

// Codec moves primitive values between component fields and a snapshot
// stream, in the direction fixed at construction.
type Codec struct {
	loading bool
	buf     []byte // saving: the stream so far; loading: the input
	off     int    // loading: read offset into buf
	err     error
}

// NewSaver returns a codec that appends to an empty stream.
func NewSaver() *Codec { return &Codec{} }

// NewSaverCap returns a codec that appends to an empty stream with room for
// n bytes, so a stream of about that size is written without regrowing.
func NewSaverCap(n int) *Codec { return &Codec{buf: make([]byte, 0, n)} }

// NewLoader returns a codec that reads the given stream.
func NewLoader(data []byte) *Codec { return &Codec{loading: true, buf: data} }

// Loading reports the direction: true when fields are overwritten from the
// stream, false when they are appended to it.
func (c *Codec) Loading() bool { return c.loading }

// Bytes returns the saved stream. The slice aliases the codec's buffer.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the first error, or nil.
func (c *Codec) Err() error { return c.err }

// Failf records an error (if none is recorded yet) and returns it. State
// methods use it to reject semantically invalid values the codec itself
// cannot know about (counts out of range, mismatched identities).
func (c *Codec) Failf(format string, args ...any) error {
	if c.err == nil {
		c.err = fmt.Errorf("snapshot: "+format, args...)
	}
	return c.err
}

// Remaining returns the number of unread bytes when loading.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// Done returns an error if the walk failed or, when loading, unread bytes
// remain.
func (c *Codec) Done() error {
	if c.err == nil && c.loading && c.off != len(c.buf) {
		c.Failf("%d trailing bytes after decode", len(c.buf)-c.off)
	}
	return c.err
}

// Header writes the magic string and schema version, or validates them,
// failing fast on unknown versions.
func (c *Codec) Header() error {
	if !c.loading {
		c.buf = append(c.buf, Magic...)
	} else if c.err == nil {
		if c.Remaining() < len(Magic) || string(c.buf[c.off:c.off+len(Magic)]) != Magic {
			return c.Failf("bad magic: not a snapshot stream")
		}
		c.off += len(Magic)
	}
	v := uint64(Version)
	c.U64(&v)
	if c.err == nil && v != Version {
		c.Failf("unsupported schema version %d (this build reads version %d)", v, Version)
	}
	return c.err
}

// The primitives below keep the saving direction small enough to inline at
// the call site (a branch and an append); the loading direction, with its
// bounds checks and sticky error, lives in the unexported read methods.

// U64 codes an unsigned varint.
func (c *Codec) U64(p *uint64) {
	if c.loading {
		*p = c.readU64()
		return
	}
	c.buf = binary.AppendUvarint(c.buf, *p)
}

// I64 codes a signed value as a zigzag varint.
func (c *Codec) I64(p *int64) {
	if c.loading {
		*p = c.readI64()
		return
	}
	c.buf = binary.AppendVarint(c.buf, *p)
}

// U32 codes a 32-bit unsigned value as a varint, rejecting out-of-range
// varints on load.
func (c *Codec) U32(p *uint32) { Uint(c, p) }

// Int codes a signed int as a zigzag varint, rejecting values that do not fit
// the platform int on load. It is most of every stream, so its saving path is
// written out rather than routed through Sint's dictionary.
func (c *Codec) Int(p *int) {
	if c.loading {
		Sint(c, p)
		return
	}
	c.buf = binary.AppendVarint(c.buf, int64(*p))
}

// Uint codes a named unsigned integer (sim.Tick, sim.Epsilon) as an unsigned
// varint; a loaded value that does not fit T is an error.
func Uint[T ~uint64 | ~uint32](c *Codec, p *T) {
	if !c.loading {
		c.buf = binary.AppendUvarint(c.buf, uint64(*p))
		return
	}
	v := c.readU64()
	if uint64(T(v)) != v {
		c.Failf("value %d overflows %T", v, *p)
		v = 0
	}
	*p = T(v)
}

// Sint codes a named or narrow signed integer (a phase enum, an int8 or
// int32 counter) as a zigzag varint; a loaded value that does not fit T is
// an error.
func Sint[T ~int | ~int32 | ~int8](c *Codec, p *T) {
	if !c.loading {
		c.buf = binary.AppendVarint(c.buf, int64(*p))
		return
	}
	v := c.readI64()
	if int64(T(v)) != v {
		c.Failf("value %d overflows %T", v, *p)
		v = 0
	}
	*p = T(v)
}

// Bool codes a boolean as one byte; loading any value other than 0 or 1 is an
// error.
func (c *Codec) Bool(p *bool) {
	if c.loading {
		*p = c.readBool()
		return
	}
	b := byte(0)
	if *p {
		b = 1
	}
	c.buf = append(c.buf, b)
}

// F64 codes a float64 as its IEEE-754 bits, fixed 8 bytes little-endian.
func (c *Codec) F64(p *float64) {
	if c.loading {
		*p = c.readF64()
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
}

func (c *Codec) readU64() uint64 {
	if c.err != nil {
		return 0
	}
	// Most values in a stream are small: decode one-byte varints inline.
	if c.off < len(c.buf) && c.buf[c.off] < 0x80 {
		c.off++
		return uint64(c.buf[c.off-1])
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.Failf("truncated or malformed varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *Codec) readI64() int64 {
	if c.err != nil {
		return 0
	}
	if c.off < len(c.buf) && c.buf[c.off] < 0x80 {
		b := int64(c.buf[c.off])
		c.off++
		return b>>1 ^ -(b & 1) // zigzag
	}
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.Failf("truncated or malformed varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

func (c *Codec) readBool() bool {
	if c.err != nil {
		return false
	}
	if c.Remaining() < 1 {
		c.Failf("truncated bool at offset %d", c.off)
		return false
	}
	b := c.buf[c.off]
	if b > 1 {
		c.Failf("invalid bool byte %d at offset %d", b, c.off)
		return false
	}
	c.off++
	return b == 1
}

func (c *Codec) readF64() float64 {
	if c.err != nil {
		return 0
	}
	if c.Remaining() < 8 {
		c.Failf("truncated float64 at offset %d", c.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
	return v
}

// take reads a length prefix and returns that many input bytes, aliasing the
// input. The length is bounds-checked against the remaining input, so
// corrupted lengths cannot trigger huge allocations.
func (c *Codec) take(what string) []byte {
	var n uint64
	c.U64(&n)
	if c.err != nil {
		return nil
	}
	if n > uint64(c.Remaining()) {
		c.Failf("%s length %d exceeds %d remaining bytes at offset %d", what, n, c.Remaining(), c.off)
		return nil
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// Blob codes a length-prefixed byte slice. A failed load stores nil.
func (c *Codec) Blob(p *[]byte) {
	if !c.loading {
		n := uint64(len(*p))
		c.U64(&n)
		c.buf = append(c.buf, *p...)
		return
	}
	*p = nil
	if b := c.take("blob"); c.err == nil {
		*p = append(make([]byte, 0, len(b)), b...)
	}
}

// Str codes a length-prefixed string, bounds-checked like Blob.
func (c *Codec) Str(p *string) {
	if !c.loading {
		n := uint64(len(*p))
		c.U64(&n)
		c.buf = append(c.buf, *p...)
		return
	}
	*p = string(c.take("string"))
}

// Section writes a named section marker, or verifies it, localizing any
// sequence mismatch between the build that saved and the build that loads.
func (c *Codec) Section(tag string) error {
	at := c.off
	got := tag
	c.Str(&got)
	if c.err == nil && got != tag {
		c.Failf("expected section %q at offset %d, found %q", tag, at, got)
	}
	return c.err
}

// Len codes the element count of a follow-on sequence of records and returns
// it: n itself when saving, the stream's count when loading. Negative counts
// are rejected, and because every record occupies at least one byte, a count
// larger than the remaining input is necessarily corrupt; rejecting it here
// lets loaders size slices with make(count) without an allocation-bomb risk.
// After an error Len returns 0.
func (c *Codec) Len(n int) int {
	at := c.off
	c.Int(&n)
	if !c.loading {
		return n
	}
	switch {
	case c.err != nil:
		return 0
	case n < 0:
		c.Failf("negative count %d at offset %d", n, at)
		return 0
	case n > c.Remaining():
		c.Failf("count %d exceeds %d remaining bytes at offset %d", n, c.Remaining(), at)
		return 0
	}
	return n
}

// Slice codes the length of a variable-length sequence and, when loading,
// resizes *p to the stream's count with every element zeroed (reusing the
// slice's capacity), so the caller codes the elements in place, by pointer,
// in one loop for both directions.
func Slice[T any](c *Codec, p *[]T) {
	n := c.Len(len(*p))
	if !c.loading {
		return
	}
	if cap(*p) < n {
		*p = make([]T, n)
		return
	}
	*p = (*p)[:n]
	clear(*p)
}

// FixedLen codes the length of a sequence whose size is configuration (a
// per-port or per-VC array): the rebuilt component already has n elements,
// and a stream that says otherwise was taken from a different component
// graph.
func (c *Codec) FixedLen(n int, what string) {
	got := n
	c.Int(&got)
	if c.err == nil && got != n {
		c.Failf("%s has %d entries, snapshot says %d", what, n, got)
	}
}

// Index codes an int that the simulator later uses as a slice index. Saving
// writes it like Int; loading additionally requires 0 <= *p < bound, so a
// well-formed stream with an out-of-range value is rejected at restore
// instead of panicking inside the continued run.
func (c *Codec) Index(p *int, bound int, what string) { c.index(p, 0, bound, what) }

// IndexOrNone is Index for fields that use -1 as "none".
func (c *Codec) IndexOrNone(p *int, bound int, what string) { c.index(p, -1, bound, what) }

func (c *Codec) index(p *int, lo, bound int, what string) {
	c.Int(p)
	if c.loading && c.err == nil && (*p < lo || *p >= bound) {
		c.Failf("%s %d out of range [%d,%d)", what, *p, lo, bound)
	}
}

// Stater is implemented by components that serialize their mutable state
// outside the simulator's own packages (a workload application): State
// appends to a saving codec and consumes the exact same sequence from a
// loading one, reporting inconsistencies through Failf.
type Stater interface {
	State(c *Codec)
}
