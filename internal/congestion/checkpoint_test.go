package congestion

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
)

// populatedSensor builds a 2-port, 2-VC credit sensor with a few updates
// applied so every serialized slice carries nonzero state.
func populatedSensor() *CreditSensor {
	cs := NewCreditSensor(2, 2, PerVC, SourceOutput, 4)
	cs.AddOutput(10, 0, 1, 3)
	cs.AddDownstream(10, 0, 1, 2)
	cs.AddOutput(12, 1, 0, 1)
	return cs
}

func saveTracker(tr Tracker) []byte {
	return snaptest.Save(func(c *snapshot.Codec) { StateTracker(c, tr) })
}

func loadTracker(data []byte, tr Tracker) error {
	return snaptest.Load(data, func(c *snapshot.Codec) { StateTracker(c, tr) })
}

func TestCreditSensorStateRoundTrip(t *testing.T) {
	cs := populatedSensor()
	data := saveTracker(cs)

	got := NewCreditSensor(2, 2, PerVC, SourceOutput, 4)
	d := snapshot.NewLoader(data)
	if StateTracker(d, got); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.outputOcc[cs.idx(0, 1)] != 3 || got.downUsed[cs.idx(0, 1)] != 2 {
		t.Fatalf("restored occupancy %v / %v", got.outputOcc, got.downUsed)
	}
	// Delayed visibility must survive: the write at tick 10 is visible at
	// 14 on both sides.
	if got.Congestion(14, 0, 1) != cs.Congestion(14, 0, 1) {
		t.Fatalf("congestion after restore %v, want %v", got.Congestion(14, 0, 1), cs.Congestion(14, 0, 1))
	}
	if !bytes.Equal(saveTracker(got), data) {
		t.Fatal("re-saved sensor state is not byte-identical")
	}
}

func TestNullSensorRoundTrip(t *testing.T) {
	data := saveTracker(NullSensor{})
	d := snapshot.NewLoader(data)
	if StateTracker(d, NullSensor{}); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
}

// customTracker exercises the snapshot.Stater dispatch arm.
type customTracker struct {
	NullSensor
	v uint64
}

func (ct *customTracker) State(c *snapshot.Codec) { c.U64(&ct.v) }

func TestCustomTrackerRoundTrip(t *testing.T) {
	data := saveTracker(&customTracker{v: 42})
	got := &customTracker{}
	if err := loadTracker(data, got); err != nil {
		t.Fatal(err)
	}
	if got.v != 42 {
		t.Fatalf("custom tracker v = %d, want 42", got.v)
	}
}

// bareTracker implements Tracker but not snapshot.Stater.
type bareTracker struct{ Tracker }

func TestTrackerDispatchErrors(t *testing.T) {
	credit := saveTracker(populatedSensor())
	null := saveTracker(NullSensor{})
	custom := saveTracker(&customTracker{v: 1})

	cases := []struct {
		name string
		data []byte
		into Tracker
		want string
	}{
		{"credit into null", credit, NullSensor{}, `"credit" in snapshot, null`},
		{"null into credit", null, NewCreditSensor(2, 2, PerVC, SourceOutput, 4), `"null" in snapshot, credit`},
		{"credit into custom", credit, &customTracker{}, `"credit" in snapshot, custom`},
		{"custom into bare", custom, bareTracker{}, "not checkpointable"},
	}
	for _, c := range cases {
		if err := loadTracker(c.data, c.into); err == nil ||
			!strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}

	// Saving reports the same condition through the codec, so Snapshot
	// returns it as an error.
	c := snapshot.NewSaver()
	if StateTracker(c, bareTracker{}); c.Err() == nil || !strings.Contains(c.Err().Error(), "not checkpointable") {
		t.Fatalf("saving a non-checkpointable tracker: err = %v", c.Err())
	}
}

func TestCreditSensorLoadRejectsCorruption(t *testing.T) {
	// Slot-count mismatch: a wider sensor's snapshot into a narrower build.
	wide := saveTracker(NewCreditSensor(4, 2, PerVC, SourceOutput, 4))
	if err := loadTracker(wide, NewCreditSensor(2, 2, PerVC, SourceOutput, 4)); err == nil ||
		!strings.Contains(err.Error(), "slots") {
		t.Fatalf("slot mismatch: err = %v", err)
	}

	// A delayed value with no history entries is structurally invalid.
	empty := snaptest.Save(func(c *snapshot.Codec) {
		snaptest.Put(c.Str, "credit")
		snaptest.Put(c.Int, 1) // one slot
		snaptest.Put(c.Int, 0)
		snaptest.Put(c.Int, 0)
		snaptest.Put(c.Int, 1) // one history
		snaptest.Put(c.Int, 0) // vals[0]: empty history
	})
	if err := loadTracker(empty, NewCreditSensor(1, 1, PerVC, SourceOutput, 4)); err == nil ||
		!strings.Contains(err.Error(), "empty history") {
		t.Fatalf("empty history: err = %v", err)
	}

	data := saveTracker(populatedSensor())
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		got := NewCreditSensor(2, 2, PerVC, SourceOutput, 4)
		if err := loadTracker(data[:n], got); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
