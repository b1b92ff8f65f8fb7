package snapshot

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// put codes one literal through a primitive: put(c.U64, 7).
func put[T any](prim func(*T), v T) { prim(&v) }

// get loads one value through a primitive.
func get[T any](prim func(*T)) T {
	var v T
	prim(&v)
	return v
}

// stream saves the values written by fn and returns the bytes.
func stream(fn func(c *Codec)) []byte {
	c := NewSaver()
	fn(c)
	return c.Bytes()
}

func TestRoundTrip(t *testing.T) {
	type named uint64
	type phase int8
	data := stream(func(c *Codec) {
		c.Header()
		c.Section("ABC")
		put(c.U64, 0)
		put(c.U64, math.MaxUint64)
		put(c.U32, 0xdeadbeef)
		put(c.I64, -1)
		put(c.I64, math.MinInt64)
		put(c.Int, -42)
		put(c.Bool, true)
		put(c.Bool, false)
		put(c.F64, 3.14159)
		put(c.F64, math.Inf(-1))
		put(c.Blob, []byte{1, 2, 3})
		put(c.Blob, nil)
		put(c.Str, "hello")
		put(c.Str, "")
		n, p := named(77), phase(-3)
		Uint(c, &n)
		Sint(c, &p)
	})

	d := NewLoader(data)
	if !d.Loading() || NewSaver().Loading() {
		t.Fatal("Loading() reports the wrong direction")
	}
	if err := d.Header(); err != nil {
		t.Fatalf("Header: %v", err)
	}
	if err := d.Section("ABC"); err != nil {
		t.Fatalf("Section: %v", err)
	}
	if v := get(d.U64); v != 0 {
		t.Errorf("U64 = %d, want 0", v)
	}
	if v := get(d.U64); v != math.MaxUint64 {
		t.Errorf("U64 = %d, want max", v)
	}
	if v := get(d.U32); v != 0xdeadbeef {
		t.Errorf("U32 = %x", v)
	}
	if v := get(d.I64); v != -1 {
		t.Errorf("I64 = %d, want -1", v)
	}
	if v := get(d.I64); v != math.MinInt64 {
		t.Errorf("I64 = %d, want min", v)
	}
	if v := get(d.Int); v != -42 {
		t.Errorf("Int = %d, want -42", v)
	}
	if !get(d.Bool) || get(d.Bool) {
		t.Errorf("Bool sequence wrong")
	}
	if v := get(d.F64); v != 3.14159 {
		t.Errorf("F64 = %v", v)
	}
	if v := get(d.F64); !math.IsInf(v, -1) {
		t.Errorf("F64 = %v, want -Inf", v)
	}
	if b := get(d.Blob); len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Errorf("Blob = %v", b)
	}
	if b := get(d.Blob); len(b) != 0 {
		t.Errorf("empty Blob = %v", b)
	}
	if s := get(d.Str); s != "hello" {
		t.Errorf("Str = %q", s)
	}
	if s := get(d.Str); s != "" {
		t.Errorf("empty Str = %q", s)
	}
	var n named
	var p phase
	Uint(d, &n)
	Sint(d, &p)
	if n != 77 || p != -3 {
		t.Errorf("named integers = %d, %d, want 77, -3", n, p)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestNewSaverCap: a presized saver writes the same stream as a plain one,
// without regrowing when the capacity suffices.
func TestNewSaverCap(t *testing.T) {
	write := func(c *Codec) []byte {
		c.Header()
		for i := int64(-300); i < 300; i++ {
			c.I64(&i)
		}
		return c.Bytes()
	}
	want := write(NewSaver())
	c := NewSaverCap(len(want))
	got := write(c)
	if !bytes.Equal(got, want) {
		t.Fatal("presized saver wrote a different stream")
	}
	if cap(got) != len(want) {
		t.Fatalf("capacity %d, want the presized %d", cap(got), len(want))
	}
}

func TestHeaderRejectsBadMagic(t *testing.T) {
	d := NewLoader([]byte("NOTASNAP\x01"))
	if err := d.Header(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want magic error, got %v", err)
	}
}

func TestHeaderRejectsVersionSkew(t *testing.T) {
	skew := stream(func(c *Codec) {
		c.buf = append(c.buf, Magic...)
		put(c.U64, Version+7)
	})
	if err := NewLoader(skew).Header(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

func TestHeaderRejectsTruncation(t *testing.T) {
	full := stream(func(c *Codec) { c.Header() })
	for cut := 0; cut < len(full); cut++ {
		if err := NewLoader(full[:cut]).Header(); err == nil {
			t.Fatalf("truncated header at %d bytes decoded without error", cut)
		}
	}
}

func TestStickyError(t *testing.T) {
	d := NewLoader(nil)
	_ = get(d.U64) // fails: empty input
	if d.Err() == nil {
		t.Fatal("expected error on empty input")
	}
	first := d.Err()
	// Every further read must store zero values and keep the first error,
	// even over a field that held something else.
	u, s, b := uint64(9), "x", []byte{1}
	d.U64(&u)
	d.Str(&s)
	d.Blob(&b)
	if u != 0 || s != "" || b != nil || get(d.I64) != 0 || get(d.Bool) || get(d.F64) != 0 || d.Len(3) != 0 {
		t.Error("reads after error did not store zero values")
	}
	if d.Err() != first {
		t.Errorf("sticky error replaced: %v -> %v", first, d.Err())
	}
}

func TestBlobLengthBomb(t *testing.T) {
	// A 1 TiB length prefix with no payload.
	d := NewLoader(stream(func(c *Codec) { put(c.U64, 1<<40) }))
	if b := get(d.Blob); b != nil || d.Err() == nil {
		t.Fatalf("oversized blob length decoded: %v, err %v", b, d.Err())
	}
}

func TestLenBomb(t *testing.T) {
	d := NewLoader(stream(func(c *Codec) { put(c.Int, 1<<40) }))
	if n := d.Len(0); n != 0 || d.Err() == nil {
		t.Fatalf("oversized count accepted: %d, err %v", n, d.Err())
	}
	d = NewLoader(stream(func(c *Codec) { put(c.Int, -1) }))
	if n := d.Len(0); n != 0 || d.Err() == nil || !strings.Contains(d.Err().Error(), "negative") {
		t.Fatalf("negative count accepted: %d, err %v", n, d.Err())
	}
}

// TestSliceAndFixedLen covers the two sequence shapes: a variable-length
// slice resized (and zeroed) to the stream's count, and a configuration-sized
// array whose count must match.
func TestSliceAndFixedLen(t *testing.T) {
	walk := func(c *Codec, s *[]int, fixed int) {
		Slice(c, s)
		for i := range *s {
			c.Int(&(*s)[i])
		}
		c.FixedLen(fixed, "things")
	}
	src := []int{4, 5, 6}
	if n := NewSaver().Len(3); n != 3 {
		t.Fatalf("saving Len returned %d, want its argument", n)
	}
	data := stream(func(c *Codec) { walk(c, &src, 3) })

	reuse := make([]int, 1, 8)
	reuse[0] = 99
	d := NewLoader(data)
	walk(d, &reuse, 3)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(reuse) != 3 || cap(reuse) != 8 || reuse[0] != 4 || reuse[2] != 6 {
		t.Fatalf("Slice did not resize in place: %v (cap %d)", reuse, cap(reuse))
	}

	var grown []int
	d = NewLoader(data)
	walk(d, &grown, 2)
	if len(grown) != 3 || grown[1] != 5 {
		t.Fatalf("Slice did not allocate: %v", grown)
	}
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "things has 2 entries, snapshot says 3") {
		t.Fatalf("FixedLen mismatch not reported: %v", d.Err())
	}

	// A zero count leaves a nil slice nil.
	var none []int
	Slice(NewLoader(stream(func(c *Codec) { c.Len(0) })), &none)
	if none != nil {
		t.Fatalf("empty Slice allocated: %v", none)
	}
}

func TestIndexBounds(t *testing.T) {
	for _, tc := range []struct {
		v          int
		strict, ok bool
	}{
		{0, true, true}, {4, true, true}, {5, true, false}, {-1, true, false},
		{-1, false, true}, {-2, false, false}, {5, false, false},
	} {
		data := stream(func(c *Codec) {
			// Saving never range-checks: the value is whatever the run holds.
			v := tc.v
			c.Index(&v, 1, "x")
		})
		d := NewLoader(data)
		var v int
		if tc.strict {
			d.Index(&v, 5, "thing.idx")
		} else {
			d.IndexOrNone(&v, 5, "thing.idx")
		}
		if (d.Err() == nil) != tc.ok {
			t.Errorf("index %d strict=%v: err %v, want ok=%v", tc.v, tc.strict, d.Err(), tc.ok)
		}
		if d.Err() != nil && !strings.Contains(d.Err().Error(), "thing.idx") {
			t.Errorf("index error does not name the field: %v", d.Err())
		}
	}
}

func TestSectionMismatch(t *testing.T) {
	d := NewLoader(stream(func(c *Codec) { c.Section("AAA") }))
	if err := d.Section("BBB"); err == nil || !strings.Contains(err.Error(), "section") {
		t.Fatalf("want section mismatch error, got %v", err)
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	d := NewLoader(stream(func(c *Codec) { put(c.U64, 7); put(c.U64, 9) }))
	_ = get(d.U64)
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

func TestFailfWhileSaving(t *testing.T) {
	c := NewSaver()
	c.Failf("component %d cannot be saved", 3)
	if err := c.Done(); err == nil || !strings.Contains(err.Error(), "cannot be saved") {
		t.Fatalf("saving-side Failf lost: %v", err)
	}
}

func TestBoolRejectsInvalidByte(t *testing.T) {
	d := NewLoader([]byte{2})
	if get(d.Bool) || d.Err() == nil {
		t.Fatalf("invalid bool byte accepted, err %v", d.Err())
	}
}

func TestIntOverflowRejected(t *testing.T) {
	d := NewLoader(stream(func(c *Codec) { put(c.U64, math.MaxUint64) }))
	if v := get(d.U32); v != 0 || d.Err() == nil {
		t.Fatalf("uint32 overflow accepted: %d", v)
	}
	type phase int8
	d = NewLoader(stream(func(c *Codec) { put(c.Int, 300) }))
	var p phase
	if Sint(d, &p); p != 0 || d.Err() == nil {
		t.Fatalf("int8 overflow accepted: %d", p)
	}
}
