package congestion

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
)

// populatedSensor builds a 2-port, 2-VC credit sensor with a few updates
// applied so the counts and the change log all carry nonzero state.
func populatedSensor() *CreditSensor {
	cs := NewCreditSensor(2, 2, PerVC, SourceBoth, 4)
	cs.AddOutput(10, 0, 1, 3)
	cs.AddDownstream(10, 0, 1, 2)
	cs.AddOutput(12, 1, 0, 1)
	return cs
}

func saveSensor(cs *CreditSensor) []byte {
	return snaptest.Save(cs.State)
}

func loadSensor(data []byte, cs *CreditSensor) error {
	return snaptest.Load(data, cs.State)
}

func TestCreditSensorStateRoundTrip(t *testing.T) {
	cs := populatedSensor()
	data := saveSensor(cs)

	got := NewCreditSensor(2, 2, PerVC, SourceBoth, 4)
	d := snapshot.NewLoader(data)
	if got.State(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.cur[cs.index(0, 1)] != 5 || got.log.Len() != 3 {
		t.Fatalf("restored counts %v, %d log entries", got.cur, got.log.Len())
	}
	// Delayed visibility must survive: nothing is visible at 13, the writes
	// at tick 10 are at 14, the one at 12 is at 16, on both sides.
	for _, now := range []sim.Tick{13, 14, 15, 16} {
		for _, pv := range [][2]int{{0, 1}, {1, 0}} {
			if g, w := got.Congestion(now, pv[0], pv[1]), cs.Congestion(now, pv[0], pv[1]); g != w {
				t.Fatalf("congestion of %v at %d after restore %v, want %v", pv, now, g, w)
			}
		}
	}
	if !bytes.Equal(saveSensor(got), saveSensor(cs)) {
		t.Fatal("re-saved sensor state is not byte-identical")
	}
}

// TestNullSensorRoundTrip: the nil sensor of a router whose routing reads
// none codes as its absence alone.
func TestNullSensorRoundTrip(t *testing.T) {
	var none *CreditSensor
	data := saveSensor(none)
	d := snapshot.NewLoader(data)
	if none.State(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
}

func TestCreditSensorLoadRejectsCorruption(t *testing.T) {
	fresh := func() *CreditSensor { return NewCreditSensor(2, 2, PerVC, SourceBoth, 4) }
	corrupt := func(edit func(cs *CreditSensor)) []byte {
		cs := populatedSensor()
		edit(cs)
		return saveSensor(cs)
	}
	cases := []struct {
		name string
		data []byte
		into *CreditSensor
		want string
	}{
		// Count mismatch: a wider sensor's snapshot into a narrower build.
		{"count mismatch", saveSensor(NewCreditSensor(4, 2, PerVC, SourceBoth, 4)), fresh(), "counts"},
		{"sensor into a router with none", saveSensor(populatedSensor()), nil, "built true in snapshot, false"},
		{"no sensor into a router with one", saveSensor(nil), fresh(), "built false in snapshot, true"},
		{"log ticks out of order", corrupt(func(cs *CreditSensor) { cs.log.Live()[2].at = 9 }), fresh(), "older than the one ahead"},
		{"log index out of range", corrupt(func(cs *CreditSensor) { cs.log.Live()[1].index = 4 }), fresh(), "congestion log index 4 out of range"},
		{"negative count", corrupt(func(cs *CreditSensor) { cs.cur[3] = -1 }), fresh(), "count 3 is negative"},
		{"negative visible count", corrupt(func(cs *CreditSensor) { cs.log.Live()[0].delta = 9 }), fresh(), "visible count 1 is negative"},
	}
	for _, c := range cases {
		if err := loadSensor(c.data, c.into); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}

	data := saveSensor(populatedSensor())
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if err := loadSensor(data[:n], fresh()); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
