package types

import "testing"

// BenchmarkNewMessage measures the unpooled construction cost of the traffic
// object graph: one allocation for a 1-flit message, and at most three for any
// shape whatever its size (run with -benchmem).
func BenchmarkNewMessage(b *testing.B) {
	for _, bc := range []struct {
		name          string
		flits, maxPkt int
	}{
		{"1flit", 1, 1},
		{"8flit_1pkt", 8, 8},
		{"32flit_4pkt", 32, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := NewMessage(uint64(i), 0, 0, 1, bc.flits, bc.maxPkt)
				if m.TotalFlits() != bc.flits {
					b.Fatal("bad message")
				}
			}
		})
	}
}

// BenchmarkPoolNewMessage measures the steady-state pooled lifecycle — get,
// use, release — which must be allocation-free once the pool is warm.
func BenchmarkPoolNewMessage(b *testing.B) {
	for _, bc := range []struct {
		name          string
		flits, maxPkt int
	}{
		{"1flit", 1, 1},
		{"32flit_4pkt", 32, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := NewPool()
			p.Release(p.NewMessage(0, 0, 0, 1, bc.flits, bc.maxPkt)) // warm the bucket
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := p.NewMessage(uint64(i), 0, 0, 1, bc.flits, bc.maxPkt)
				p.Release(m)
			}
		})
	}
}
