package stats

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
)

func recorderWithSamples() *Recorder {
	r := NewRecorder()
	r.Record(Sample{Start: 10, End: 25, Flits: 4, Hops: 3, NonMinimal: true, App: 1, Src: 2, Dst: 7})
	r.Record(Sample{Start: 11, End: 11, Flits: 1, Hops: 1, App: 0, Src: 5, Dst: 0})
	r.Record(Sample{Start: 40, End: 90, Flits: 8, Hops: 5, App: 1, Src: 0, Dst: 3})
	return r
}

func TestRecorderStateRoundTrip(t *testing.T) {
	r := recorderWithSamples()
	_ = r.Percentile(50) // materialize the derived sorted view before saving

	data := snaptest.Save(r.State)

	// Load over a recorder holding different samples and a stale sorted
	// view: both must be replaced.
	got := NewRecorder()
	got.Record(Sample{Start: 1, End: 2, Flits: 1, Hops: 1})
	_ = got.Mean()
	d := snapshot.NewLoader(data)
	if got.State(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if !reflect.DeepEqual(got.Samples(), r.Samples()) {
		t.Fatalf("samples differ:\n got %+v\nwant %+v", got.Samples(), r.Samples())
	}
	if got.Percentile(99) != r.Percentile(99) || got.Mean() != r.Mean() {
		t.Fatal("derived statistics differ after restore")
	}

	if !bytes.Equal(data, snaptest.Save(got.State)) {
		t.Fatal("re-saved recorder state is not byte-identical")
	}
}

func TestRecorderStateRoundTripEmpty(t *testing.T) {
	got := recorderWithSamples()
	if err := snaptest.Load(snaptest.Save(NewRecorder().State), got.State); err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 {
		t.Fatalf("restored empty recorder has %d samples", got.Count())
	}
}

func TestRecorderLoadRejectsInvertedSample(t *testing.T) {
	data := snaptest.Save(func(c *snapshot.Codec) {
		snaptest.Put(c.Int, 1)
		snaptest.Put(c.U64, 20) // Start
		snaptest.Put(c.U64, 5)  // End before Start
		snaptest.Put(c.Int, 1)
		snaptest.Put(c.Int, 1)
		snaptest.Put(c.Bool, false)
		snaptest.Put(c.Int, 0)
		snaptest.Put(c.Int, 0)
		snaptest.Put(c.Int, 0)
	})
	err := snaptest.Load(data, NewRecorder().State)
	if err == nil || !strings.Contains(err.Error(), "ends") {
		t.Fatalf("err = %v, want inverted-sample error", err)
	}
}

func TestRecorderLoadRejectsTruncation(t *testing.T) {
	data := snaptest.Save(recorderWithSamples().State)
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if err := snaptest.Load(data[:n], NewRecorder().State); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
