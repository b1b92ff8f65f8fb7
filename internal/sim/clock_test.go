package sim

import (
	"testing"
	"testing/quick"
)

func TestClockEdges(t *testing.T) {
	c := NewClock(3) // Clock A from the paper's Figure 2b: 3 tick cycle time
	wantEdges := map[Tick]bool{0: true, 3: true, 6: true, 9: true}
	for tick := Tick(0); tick < 10; tick++ {
		if isEdge := c.NextEdge(tick) == tick; isEdge != wantEdges[tick] {
			t.Errorf("tick %d is an edge: %v", tick, isEdge)
		}
	}
}

func TestClockNextEdge(t *testing.T) {
	c := NewClock(2) // Clock B from Figure 2b: 2 tick cycle time
	cases := []struct{ in, want Tick }{
		{0, 0}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 6},
	}
	for _, cse := range cases {
		if got := c.NextEdge(cse.in); got != cse.want {
			t.Errorf("NextEdge(%d) = %d, want %d", cse.in, got, cse.want)
		}
	}
}

func TestClockFutureEdge(t *testing.T) {
	c := NewClock(5)
	if got := c.FutureEdge(7, 0); got != 10 {
		t.Fatalf("FutureEdge(7,0) = %d, want 10", got)
	}
	if got := c.FutureEdge(10, 3); got != 25 {
		t.Fatalf("FutureEdge(10,3) = %d, want 25", got)
	}
}

func TestClockInvalidPanics(t *testing.T) {
	mustPanic(t, func() { NewClock(0) })
}

func TestClockNextEdgeProperties(t *testing.T) {
	prop := func(period16 uint16, tick uint32) bool {
		period := Tick(period16%1000) + 1
		c := NewClock(period)
		e := c.NextEdge(Tick(tick))
		// e is an edge, e >= tick, and no edge exists in [tick, e)
		if e%period != 0 || e < Tick(tick) {
			return false
		}
		if e >= period && e-period >= Tick(tick) {
			return false // a closer edge existed
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
