package core

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"supersim/internal/channel"
	"supersim/internal/config"
	"supersim/internal/types"
)

// The simulator keeps terminal, port, VC and client numbers in plain ints and
// indexes slices with them. A snapshot is external input: a well-formed
// stream that carries one of those out of range used to restore cleanly and
// then panic inside Run. These tests plant such a value in a live simulation,
// snapshot it, and require Restore to refuse the stream naming the field.

// peek follows a path of field names and slice indices through pointers,
// interfaces and unexported fields, returning a settable value.
func peek(root any, path ...any) reflect.Value {
	v := reflect.ValueOf(root)
	for _, step := range path {
		for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
			v = v.Elem()
		}
		switch s := step.(type) {
		case string:
			v = v.FieldByName(s)
		case int:
			v = v.Index(s)
		}
		if !v.IsValid() {
			panic("peek: no such field or index in path")
		}
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	return v
}

// liveArrival returns the first in-flight arrival, a flit's (credit false)
// or a credit's (credit true), on any receiver's arrival line.
func liveArrival(t *testing.T, sm *Simulation, credit bool) reflect.Value {
	t.Helper()
	for _, a := range arrivals(sm) {
		if a.FieldByName("f").IsNil() == credit {
			return a
		}
	}
	t.Fatalf("no arrival (credit %v) in flight at the snapshot tick", credit)
	return reflect.Value{}
}

// arrivals returns every arrival in flight on a receiver's arrival line, in
// the walk's order.
func arrivals(sm *Simulation) []reflect.Value {
	var lines []*channel.Line
	for i := 0; i < sm.Net.NumRouters(); i++ {
		lines = append(lines, sm.Net.Router(i).Arrivals())
	}
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		lines = append(lines, sm.Net.Interface(i).Arrivals())
	}
	var all []reflect.Value
	for _, l := range lines {
		lanes := peek(l, "lanes")
		for ln := 0; ln < lanes.Len(); ln++ {
			buf, head := peek(l, "lanes", ln, "q", "vals", "buf"), int(peek(l, "lanes", ln, "q", "vals", "head").Int())
			for i := head; i < buf.Len(); i++ {
				all = append(all, peek(l, "lanes", ln, "q", "vals", "buf", i))
			}
		}
	}
	return all
}

// liveFlight returns the first delay-line entry in flight inside any
// router.
func liveFlight(t *testing.T, sm *Simulation) reflect.Value {
	t.Helper()
	for i := 0; i < sm.Net.NumRouters(); i++ {
		r := sm.Net.Router(i)
		buf, head := peek(r, "dl", "q", "vals", "buf"), int(peek(r, "dl", "q", "vals", "head").Int())
		if head < buf.Len() {
			return peek(r, "dl", "q", "vals", "buf", head)
		}
	}
	t.Fatal("no flit crossing a router at the snapshot tick")
	return reflect.Value{}
}

// liveSensor returns the congestion sensor of a router whose change log
// holds at least two entries at the snapshot tick.
func liveSensor(t *testing.T, sm *Simulation) any {
	t.Helper()
	for i := 0; i < sm.Net.NumRouters(); i++ {
		cs := peek(sm.Net.Router(i), "sensor")
		if !cs.IsNil() && peek(cs.Interface(), "log", "buf").Len()-int(peek(cs.Interface(), "log", "head").Int()) >= 2 {
			return cs.Interface()
		}
	}
	t.Fatal("no router's congestion log holds two changes at the snapshot tick")
	return nil
}

// liveMessage returns a message with a flit in flight on some channel.
func liveMessage(t *testing.T, sm *Simulation) *types.Message {
	t.Helper()
	f := liveArrival(t, sm, false).FieldByName("f")
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface().(*types.Flit).Pkt.Msg
}

// liveSpan returns the slot of an open span of the span recorder: one that
// a tracked flit holds.
func liveSpan(t *testing.T, sm *Simulation) int {
	t.Helper()
	spans := peek(sm.Telemetry.Spans(), "spans")
	for i := 0; i < spans.Len(); i++ {
		if !peek(spans.Index(i).Addr().Interface(), "head").IsNil() {
			return i
		}
	}
	t.Fatal("no open span at the snapshot tick")
	return -1
}

func TestRestoreRejectsOutOfRangeIndices(t *testing.T) {
	const far = 1 << 20 // beyond any terminal, port, VC or client count
	gcs := goldenCases()
	iq, oq, ioq, ugal := gcs[0].doc, gcs[5].doc, gcs[6].doc, gcs[3].doc
	router0 := func(sm *Simulation) any { return sm.Net.Router(0) }
	cases := []struct {
		field string // as named by the restore error
		doc   string
		plant func(t *testing.T, sm *Simulation)
	}{
		{"Message.Src", iq, func(t *testing.T, sm *Simulation) { liveMessage(t, sm).Src = far }},
		{"Message.Dst", iq, func(t *testing.T, sm *Simulation) { peek(liveMessage(t, sm), "first", "dst").SetInt(-1) }},
		{"Message.App", iq, func(t *testing.T, sm *Simulation) { liveMessage(t, sm).App = far }},
		{"flit arrival VC", iq, func(t *testing.T, sm *Simulation) {
			peek(liveArrival(t, sm, false).Addr().Interface(), "vc").SetInt(far)
		}},
		{"delay line output VC", oq, func(t *testing.T, sm *Simulation) {
			peek(liveFlight(t, sm).Addr().Interface(), "vc").SetInt(far)
		}},
		{"inputVC.outPort", iq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "in", 0, "outPort").SetInt(far) }},
		{"inputVC.outVC", iq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "in", 0, "outVC").SetInt(far) }},
		{"oqInput.outVC", oq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "in", 0, "outVC").SetInt(far) }},
		{"routing.Response.Port", iq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "in", 0, "resp", "Port").SetInt(far) }},
		{"routing.Response.VCs", iq, func(t *testing.T, sm *Simulation) {
			// Replace the slice: the original aliases the algorithm's VC set.
			peek(router0(sm), "in", 0, "resp", "VCs").Set(reflect.ValueOf([]int{far}))
		}},
		{"Interface.curVC", iq, func(t *testing.T, sm *Simulation) { peek(sm.Net.Interface(0), "curVC").SetInt(far) }},
		{"Interface.curFlit", iq, func(t *testing.T, sm *Simulation) { peek(sm.Net.Interface(0), "curFlit").SetInt(far) }},
		{"xbarSched.lastGrant", iq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "sched", 0, "lastGrant").SetInt(far) }},
		{"xbarSched.locked", iq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "sched", 0, "locked").SetInt(far) }},
		{"xbarSched.contenders", iq, func(t *testing.T, sm *Simulation) {
			peek(router0(sm), "sched", 0, "contenders").Set(reflect.ValueOf([]int{far}))
		}},
		{"output VC holder", iq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "holder", 0, 0).SetInt(far) }},
		{"vcPending", iq, func(t *testing.T, sm *Simulation) {
			peek(router0(sm), "vcPending").Set(reflect.ValueOf([]int{far}))
		}},
		// The rotation counters are used modulo a length: only a negative
		// value is out of range.
		{"vcRotate", iq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "vcRotate").SetInt(-1) }},
		{"Interface.injectRR", iq, func(t *testing.T, sm *Simulation) { peek(sm.Net.Interface(0), "injectRR").SetInt(-1) }},
		{"OQ.outOwner", oq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "outOwner", 0).SetInt(far) }},
		// One back end, two places in the stream: OQ codes its queue owners
		// between the two halves of the output stage's state.
		{"outputStage.outRR", oq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "out", "outRR", 0).SetInt(-1) }},
		{"outputStage.outRR", ioq, func(t *testing.T, sm *Simulation) { peek(router0(sm), "out", "outRR", 0).SetInt(-1) }},
		{"Credit.VC", iq, func(t *testing.T, sm *Simulation) {
			peek(liveArrival(t, sm, true).Addr().Interface(), "vc").SetInt(far)
		}},
		// The sensor rows run the UGAL golden with a sensing latency, so
		// its routers hold change logs.
		{"congestion sensor count", ugal, func(t *testing.T, sm *Simulation) { peek(liveSensor(t, sm), "cur", 0).SetInt(-1) }},
		{"congestion log index", ugal, func(t *testing.T, sm *Simulation) {
			cs := liveSensor(t, sm)
			head := int(peek(cs, "log", "head").Int())
			peek(cs, "log", "buf", head, "index").SetInt(far)
		}},
		{"congestion log entry", ugal, func(t *testing.T, sm *Simulation) {
			cs := liveSensor(t, sm)
			head := int(peek(cs, "log", "head").Int())
			peek(cs, "log", "buf", head, "at").SetUint(pinnedTick + 1)
		}},
		{"span app", iq, func(t *testing.T, sm *Simulation) {
			peek(sm.Telemetry.Spans(), "spans", liveSpan(t, sm), "rec", "App").SetInt(far)
		}},
		{"span hop", iq, func(t *testing.T, sm *Simulation) {
			peek(sm.Telemetry.Spans(), "spans", liveSpan(t, sm), "hop").SetInt(-1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			cfg := config.MustParse(tc.doc)
			if strings.HasPrefix(tc.field, "span ") {
				if err := cfg.ApplyOverrides(probesOn); err != nil {
					t.Fatal(err)
				}
			}
			if strings.HasPrefix(tc.field, "congestion ") {
				if err := cfg.ApplyOverrides([]string{"network.router.congestion_sensor.latency=uint=4"}); err != nil {
					t.Fatal(err)
				}
			}
			sm := Build(cfg)
			sm.Sim.RunUntil(pinnedTick)
			tc.plant(t, sm)
			data, err := sm.Snapshot(pinnedTick)
			if err != nil {
				t.Fatalf("snapshot of the planted state: %v", err)
			}
			if _, _, err := Restore(data, 0); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("restore err = %v, want an error naming %s", err, tc.field)
			}
		})
	}
}
