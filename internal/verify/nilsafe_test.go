package verify

import (
	"reflect"
	"testing"

	"supersim/internal/sim"
)

// hubOnly names the *Verifier methods that are not component hooks: only
// core calls them, on the Verifier it attached (behind its own
// `sm.Verify != nil`, or through a registration made only when attached), so
// they dereference their receiver. Methods promoted from the embedded
// ComponentBase are skipped the same way, by lookup.
var hubOnly = map[string]string{
	"SetDiagnoser":    "core.Build calls it on the verifier it just attached",
	"ProcessEvent":    "the watchdog event is only ever scheduled by Attach",
	"VerifyDrained":   "core.Run calls it behind sm.Verify != nil",
	"State":           "core's checkpoint walk calls it behind sm.Verify != nil",
	"MessageObtained": "pool observer, registered by core.Build only when attached",
	"MessageReleased": "pool observer, registered by core.Build only when attached",
	"Injected":        "drain/diagnostic accessor of an attached verifier",
	"Retired":         "drain/diagnostic accessor of an attached verifier",
	"InFlight":        "drain/diagnostic accessor of an attached verifier",
}

// TestProbesNilSafe is the whole enforcement of the hook contract: model code
// calls the verifier's flit hooks unguarded, so each must be a no-op on a nil
// receiver — no panic, zero-valued results — whatever its arguments. A hook
// added without the nil check fails here.
func TestProbesNilSafe(t *testing.T) {
	base := reflect.TypeOf((*sim.ComponentBase)(nil))
	v := reflect.ValueOf((*Verifier)(nil))
	for i := 0; i < v.NumMethod(); i++ {
		method := v.Type().Method(i).Name
		if _, promoted := base.MethodByName(method); promoted || hubOnly[method] != "" {
			continue
		}
		t.Run(v.Type().String()+"."+method, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panics on a nil receiver: %v", r)
				}
			}()
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			for j, out := range m.Call(args) {
				if !out.IsZero() {
					t.Errorf("result %d on a nil receiver = %v, want the zero value", j, out)
				}
			}
		})
	}
	for name := range hubOnly {
		if _, ok := v.Type().MethodByName(name); !ok {
			t.Errorf("hubOnly names %s, which *Verifier does not have", name)
		}
	}
}
