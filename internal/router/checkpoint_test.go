package router

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
	"supersim/internal/types"
)

const ioqCheckpointDoc = `{
  "architecture": "input_output_queued",
  "num_vcs": 2,
  "speedup": 1,
  "input_buffer_depth": 8,
  "output_queue_depth": 4,
  "crossbar_latency": 2
}`

const oqCheckpointDoc = `{
  "architecture": "output_queued",
  "num_vcs": 1,
  "input_buffer_depth": 8,
  "queue_latency": 5,
  "output_queue_depth": 16,
  "congestion_sensor": {"granularity": "port", "source": "output"}
}`

// stalledRouter builds a lone router with a single downstream credit and no
// credit returns, then pushes a 3-flit packet: one flit escapes, the rest of
// the packet is buffered inside the router — routed, part-way through the
// pipeline, but unable to leave.
func stalledRouter(t *testing.T, doc string, vcs int) Router {
	t.Helper()
	s, r, out, _ := buildLoneRouter(t, doc, vcs, 1)
	out.creditC = nil // starve the router: no credit returns
	pushPacket(s, r, 3, vcs-1, 10)
	s.Run()
	if len(out.flits) != 1 {
		t.Fatalf("router forwarded %d flits with 1 credit", len(out.flits))
	}
	return r
}

// anyIndex admits every terminal, application and VC number the tests use.
var anyIndex = types.Bounds{Terminals: 64, Apps: 64}

// stateOf codes a router after its simulator, as the simulation's walk
// does, against a fresh message table.
func stateOf(r Router) func(*snapshot.Codec) {
	return func(c *snapshot.Codec) {
		r.Sim().State(c)
		r.State(c, types.NewMessageTable(nil, anyIndex))
	}
}

// roundTripRouter restores the stalled router's state into a freshly built
// identical router and requires a byte-identical re-save, then runs the
// truncation sweep.
func roundTripRouter(t *testing.T, doc string, vcs int) {
	t.Helper()
	data := snaptest.Save(stateOf(stalledRouter(t, doc, vcs)))

	_, got, _, _ := buildLoneRouter(t, doc, vcs, 1)
	d := snapshot.NewLoader(data)
	if stateOf(got)(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if resaved := snaptest.Save(stateOf(got)); !bytes.Equal(resaved, data) {
		t.Fatal("re-saved router state is not byte-identical")
	}

	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		_, tr, _, _ := buildLoneRouter(t, doc, vcs, 1)
		if err := snaptest.Load(data[:n], stateOf(tr)); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}

func TestIQStateRoundTrip(t *testing.T)  { roundTripRouter(t, iqDoc, 2) }
func TestIOQStateRoundTrip(t *testing.T) { roundTripRouter(t, ioqCheckpointDoc, 2) }
func TestOQStateRoundTrip(t *testing.T)  { roundTripRouter(t, oqCheckpointDoc, 1) }

func TestRouterLoadRejectsMismatchedBuild(t *testing.T) {
	data := snaptest.Save(stateOf(stalledRouter(t, iqDoc, 2)))

	// Same architecture, different VC count: the per-port credit vectors
	// cannot line up.
	narrowDoc := strings.Replace(iqDoc, `"num_vcs": 2`, `"num_vcs": 1`, 1)
	_, narrow, _, _ := buildLoneRouter(t, narrowDoc, 1, 1)
	if err := snaptest.Load(data, stateOf(narrow)); err == nil ||
		!strings.Contains(err.Error(), "VCs") {
		t.Fatalf("VC mismatch: err = %v", err)
	}

	// An OQ snapshot restored into an OQ build with a different congestion
	// sensor configuration must fail on the sensor state.
	oqData := snaptest.Save(stateOf(stalledRouter(t, oqCheckpointDoc, 1)))
	nullDoc := strings.Replace(oqCheckpointDoc,
		`"congestion_sensor": {"granularity": "port", "source": "output"}`,
		`"congestion_sensor": {"type": "null"}`, 1)
	_, ns, _, _ := buildLoneRouter(t, nullDoc, 1, 1)
	if err := snaptest.Load(oqData, stateOf(ns)); err == nil ||
		!strings.Contains(err.Error(), "congestion sensor") {
		t.Fatalf("sensor mismatch: err = %v", err)
	}
}

// TestRouterLoadRejectsBatchingCorruption: the batching state a snapshot
// stores once is validated on load, since the rest is rebuilt from it.
func TestRouterLoadRejectsBatchingCorruption(t *testing.T) {
	cases := []struct {
		name, doc string
		vcs       int
		corrupt   func(r Router)
		want      string
	}{
		{"port armed twice", ioqCheckpointDoc, 2, func(r Router) {
			r.(*IOQ).out.ready = []int{1, 1}
		}, "armed twice"},
		{"route for a VC with no unrouted head", iqDoc, 2, func(r Router) {
			r.(*IQ).routes.q.Push(1000, 0) // input VC 0 is empty
		}, "not an unrouted packet head"},
		{"delay line out of order", oqCheckpointDoc, 1, func(r Router) {
			oq := r.(*OQ)
			f := oq.out.outQ[oq.client(1, 0)].peek() // a stalled flit
			dl := &oq.dl
			dl.q.Push(20, flight{f, 1, 0})
			dl.q.Push(30, flight{f, 1, 0})
			runs, _ := dl.q.Live()
			runs[1].At = 10 // Push refuses it; the saved stream gets it anyway
		}, "due before"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := stalledRouter(t, tc.doc, tc.vcs)
			tc.corrupt(r)
			data := snaptest.Save(stateOf(r))
			_, fresh, _, _ := buildLoneRouter(t, tc.doc, tc.vcs, 1)
			if err := snaptest.Load(data, stateOf(fresh)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
