package crossbar

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
)

func TestCrossbarStateRoundTrip(t *testing.T) {
	x := New(3, 1, 4, 1)
	x.windowStart[0] = 8
	x.windowCount[0] = 2
	x.windowStart[2] = 12
	x.windowCount[2] = 1
	data := snaptest.Save(x.State)

	got := New(3, 1, 4, 1)
	d := snapshot.NewLoader(data)
	if got.State(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.windowStart[0] != 8 || got.windowCount[0] != 2 || got.windowStart[2] != 12 {
		t.Fatalf("restored windows %v/%v", got.windowStart, got.windowCount)
	}
	if !bytes.Equal(snaptest.Save(got.State), data) {
		t.Fatal("re-saved crossbar state is not byte-identical")
	}

	narrow := New(2, 1, 4, 1)
	if err := snaptest.Load(data, narrow.State); err == nil ||
		!strings.Contains(err.Error(), "outputs") {
		t.Fatalf("geometry mismatch: err = %v", err)
	}
	for _, n := range []int{0, len(data) / 2, len(data) - 1} {
		if err := snaptest.Load(data[:n], New(3, 1, 4, 1).State); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
