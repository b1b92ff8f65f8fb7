package snapshot

import (
	"testing"
)

// FuzzCodec feeds arbitrary bytes through every loading primitive and the
// header/section validators. The contract under test: arbitrary input —
// corrupted, truncated, or version-skewed — must surface as a sticky error,
// never as a panic, an over-allocation, or an out-of-bounds read. The seed
// corpus in testdata/fuzz/FuzzCodec covers a valid stream, a truncated
// stream, a version-skewed header, and length-bomb prefixes.
func FuzzCodec(f *testing.F) {
	valid := stream(func(c *Codec) {
		c.Header()
		c.Section("SIM")
		put(c.U64, 12345)
		put(c.I64, -99)
		put(c.Bool, true)
		put(c.F64, 2.5)
		put(c.Blob, []byte("payload"))
		put(c.Str, "name")
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(stream(func(c *Codec) {
		c.buf = append(c.buf, Magic...)
		put(c.U64, Version+1)
	}))
	f.Add(stream(func(c *Codec) { put(c.U64, 1<<50) }))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewLoader(data)
		_ = d.Header()
		_ = d.Section("SIM")
		// Exercise every primitive repeatedly; sticky errors must make all
		// of these safe no matter where the input goes wrong.
		for i := 0; i < 8 && d.Err() == nil; i++ {
			_ = get(d.U64)
			_ = get(d.U32)
			_ = get(d.I64)
			_ = get(d.Int)
			_ = get(d.Bool)
			_ = get(d.F64)
			_ = get(d.Blob)
			_ = get(d.Str)
			_ = d.Len(0)
			var s []uint64
			Slice(d, &s)
			d.FixedLen(2, "fuzz")
			d.Index(new(int), 4, "fuzz")
			d.IndexOrNone(new(int), 4, "fuzz")
		}
		if d.Err() != nil {
			// Sticky: reads after an error store zero values and never move.
			off := d.off
			if get(d.U64) != 0 || get(d.Str) != "" || get(d.Blob) != nil || get(d.Bool) {
				t.Fatal("non-zero read after codec error")
			}
			if d.off != off {
				t.Fatal("codec advanced after error")
			}
		}
		// Done must never panic either.
		_ = d.Done()
	})
}
