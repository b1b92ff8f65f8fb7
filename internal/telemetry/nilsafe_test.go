package telemetry

import (
	"reflect"
	"testing"
)

// TestProbesNilSafe is the whole enforcement of the probe contract: model
// code calls its hooks unguarded, so every exported method of every probe
// type must be a no-op on a nil receiver — no panic, zero-valued results —
// whatever its arguments (nil pointers included). A method added without the
// nil check fails here. Nothing is excluded: all five types are nil when their
// feature is off.
func TestProbesNilSafe(t *testing.T) {
	for _, probe := range []any{
		(*ChannelProbe)(nil), (*RouterProbe)(nil), (*IfaceProbe)(nil),
		(*WorkloadProbe)(nil), (*Spans)(nil),
	} {
		v := reflect.ValueOf(probe)
		for i := 0; i < v.NumMethod(); i++ {
			name := v.Type().String() + "." + v.Type().Method(i).Name
			t.Run(name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panics on a nil receiver: %v", r)
					}
				}()
				m := v.Method(i)
				// Twice: all-zero arguments, then every integer argument 1, so
				// a body that only touches its receiver for a non-zero count
				// (RouterProbe.Alloc) is exercised too.
				for _, n := range []int64{0, 1} {
					args := make([]reflect.Value, m.Type().NumIn())
					for j := range args {
						args[j] = reflect.Zero(m.Type().In(j))
						if args[j].CanInt() {
							args[j] = reflect.ValueOf(n).Convert(m.Type().In(j))
						}
					}
					for j, out := range m.Call(args) {
						if !out.IsZero() {
							t.Errorf("result %d on a nil receiver = %v, want the zero value", j, out)
						}
					}
				}
			})
		}
	}
}
