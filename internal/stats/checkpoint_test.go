package stats

import (
	"bytes"
	"encoding/hex"
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

// The stream is schema v1 whatever the recorder stores: these are the bytes
// the []Sample recorder of PR 16 saved for recorderWithSamples.
func TestRecorderStateBytesPinned(t *testing.T) {
	const want = "060a1908060102040e0b0b020200000a00285a100a00020006"
	if got := hex.EncodeToString(snaptest.Save(recorderWithSamples().State)); got != want {
		t.Fatalf("saved bytes\n got %s\nwant %s", got, want)
	}
}

// Round trip on each side of a chunk boundary, into a recorder that is
// empty, smaller and larger than the one saved.
func TestRecorderStateRoundTripSizes(t *testing.T) {
	for _, n := range chunkSizes {
		ref, r := manySamples(n)
		data := snaptest.Save(r.State)
		for _, had := range []int{0, 5, n + chunkRows} {
			_, got := manySamples(had)
			_ = got.Percentile(50) // a sorted view the load must drop
			d := snapshot.NewLoader(data)
			if got.State(d); d.Done() != nil {
				t.Fatalf("n=%d over %d: %v", n, had, d.Done())
			}
			if got.Count() != n || (n > 0 && !reflect.DeepEqual(got.Samples(), ref)) {
				t.Fatalf("n=%d over %d: restored %d samples differ", n, had, got.Count())
			}
			if n > 0 && (got.Percentile(99) != r.Percentile(99) || got.Mean() != r.Mean()) {
				t.Fatalf("n=%d over %d: derived statistics differ after restore", n, had)
			}
			if !bytes.Equal(data, snaptest.Save(got.State)) {
				t.Fatalf("n=%d over %d: re-saved state is not byte-identical", n, had)
			}
		}
	}
}

// A well-formed stream whose sample a recorder cannot hold is an error, not
// a panic and not a silently narrowed value.
func TestRecorderLoadRejectsUnrecordableSample(t *testing.T) {
	for _, tc := range []struct {
		want string
		s    Sample
	}{
		{"ends", Sample{Start: 20, End: 5, Flits: 1}},
		{"out of range", Sample{Start: 5, End: 20, Flits: 1 << 40}},
		{"out of range", Sample{Start: 5, End: 20, Hops: -1}},
	} {
		data := snaptest.Save(func(c *snapshot.Codec) {
			snaptest.Put(c.Int, 1)
			snaptest.Put(c.U64, tc.s.Start)
			snaptest.Put(c.U64, tc.s.End)
			snaptest.Put(c.Int, tc.s.Flits)
			snaptest.Put(c.Int, tc.s.Hops)
			snaptest.Put(c.Bool, tc.s.NonMinimal)
			snaptest.Put(c.Int, tc.s.App)
			snaptest.Put(c.Int, tc.s.Src)
			snaptest.Put(c.Int, tc.s.Dst)
		})
		got := NewRecorder()
		err := snaptest.Load(data, got.State)
		if err == nil || !strings.Contains(err.Error(), tc.want) || got.Count() != 0 {
			t.Fatalf("%+v: err = %v with %d samples loaded, want a %q error and none", tc.s, err, got.Count(), tc.want)
		}
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
