package apps

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
)

// lineRig is an injection line on a simulator, with a handler that takes
// each due tick's entries and logs them.
type lineRig struct {
	s    *sim.Simulator
	l    injectLine
	h    sim.Handler
	runs [][]int
}

func newLineRig(n int) *lineRig {
	r := &lineRig{s: sim.NewSimulator(1), l: newInjectLine(n)}
	r.h = sim.HandlerFunc(func(ev *sim.Event) {
		r.runs = append(r.runs, append([]int(nil), r.l.take(ev.Time.Tick)...))
	})
	return r
}

// TestInjectLineRunsEachTickInScheduleOrder adds entries out of tick order,
// two ticks sharing a slot, and requires one event per distinct tick, each
// running its entries in the order they were added.
func TestInjectLineRunsEachTickInScheduleOrder(t *testing.T) {
	r := newLineRig(6)
	far := sim.Tick(5 + lineSlots) // shares tick 5's slot
	for _, add := range []struct {
		at sim.Tick
		e  int
	}{{5, 3}, {far, 0}, {2, 4}, {5, 1}, {2, 5}, {5, 2}} {
		r.l.add(r.s, r.h, add.at, add.e)
	}
	if n := r.s.Pending(); n != 3 {
		t.Fatalf("%d events pending for 3 distinct ticks", n)
	}
	if got := r.l.ticks(); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != far {
		t.Fatalf("ticks %v", got)
	}
	r.s.Run()
	want := [][]int{{4, 5}, {3, 1, 2}, {0}}
	if len(r.runs) != len(want) {
		t.Fatalf("ran %v, want %v", r.runs, want)
	}
	for i := range want {
		if len(r.runs[i]) != len(want[i]) {
			t.Fatalf("ran %v, want %v", r.runs, want)
		}
		for j := range want[i] {
			if r.runs[i][j] != want[i][j] {
				t.Fatalf("ran %v, want %v", r.runs, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("take of a tick with nothing due did not panic")
		}
	}()
	r.l.take(7)
}

func TestInjectLineStateRoundTrip(t *testing.T) {
	r := newLineRig(4)
	r.l.add(r.s, r.h, 9, 2)
	r.l.add(r.s, r.h, 3, 0)
	r.l.add(r.s, r.h, 9, 1)
	state := func(l *injectLine) func(*snapshot.Codec) {
		return func(c *snapshot.Codec) { l.state(c, "line") }
	}
	data := snaptest.Save(state(&r.l))

	got := newInjectLine(4)
	got.push(20, 3) // stale: a load replaces the contents
	if err := snaptest.Load(data, state(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snaptest.Save(state(&got)), data) {
		t.Fatal("re-saved line is not byte-identical")
	}
	if d := got.due(9); len(d) != 2 || d[0] != 2 || d[1] != 1 {
		t.Fatalf("restored tick 9 holds %v, want [2 1]", d)
	}

	for _, tc := range []struct {
		name string
		put  func(c *snapshot.Codec)
		want string
	}{
		{"ticks out of order", func(c *snapshot.Codec) {
			snaptest.Put(c.Int, 2)
			snaptest.Put(c.U64, 9)
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.Int, 0)
			snaptest.Put(c.U64, 9)
		}, "not after"},
		{"empty tick", func(c *snapshot.Codec) {
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.U64, 9)
			snaptest.Put(c.Int, 0)
		}, "nothing due"},
		{"entry twice", func(c *snapshot.Codec) {
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.U64, 9)
			snaptest.Put(c.Int, 2)
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.Int, 1)
		}, "queued twice"},
		{"entry out of range", func(c *snapshot.Codec) {
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.U64, 9)
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.Int, 4)
		}, "out of range"},
	} {
		fresh := newInjectLine(4)
		if err := snaptest.Load(snaptest.Save(tc.put), state(&fresh)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
