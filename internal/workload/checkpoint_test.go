package workload_test

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/network"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
	"supersim/internal/workload"
)

// staterApp is a checkpointable fake: fakeApp plus snapshot.Stater with one
// counter of state, so workload round trips can verify application state
// travels in registration order.
type staterApp struct {
	fakeApp
	counter uint64
}

func (a *staterApp) State(c *snapshot.Codec) { c.U64(&a.counter) }

var staters []*staterApp

func init() {
	workload.Registry.Register("test_stater",
		func(s *sim.Simulator, cfg *config.Settings, w *workload.Workload, appID int, net network.Network) workload.Application {
			a := &staterApp{}
			a.w = w
			a.id = appID
			staters = append(staters, a)
			return a
		})
}

// buildStaterWorkload mirrors buildWorkload with checkpointable apps.
func buildStaterWorkload(t *testing.T, numApps int) (*workload.Workload, []*staterApp) {
	t.Helper()
	staters = nil
	s := sim.NewSimulator(1)
	netCfg := config.MustParse(`{
	  "topology": "parking_lot",
	  "routers": 2,
	  "channel": {"latency": 2, "period": 1},
	  "injection": {"latency": 1},
	  "router": {"architecture": "input_queued", "num_vcs": 1, "input_buffer_depth": 4, "crossbar_latency": 1}
	}`)
	net := network.New(s, netCfg)
	apps := `{"applications": [`
	for i := 0; i < numApps; i++ {
		if i > 0 {
			apps += ","
		}
		apps += `{"type": "test_stater"}`
	}
	apps += `]}`
	w := workload.New(s, config.MustParse(apps), net)
	return w, staters
}

// walk codes a workload after its simulator, as the simulation's walk does.
func walk(w *workload.Workload) func(*snapshot.Codec) {
	return func(c *snapshot.Codec) {
		w.Sim().State(c)
		w.State(c)
	}
}

func saveWorkload(w *workload.Workload) []byte { return snaptest.Save(walk(w)) }

func TestWorkloadStateRoundTrip(t *testing.T) {
	w, apps := buildStaterWorkload(t, 2)
	// Advance the state machine mid-handshake: one app generating-ready
	// signal outstanding, message IDs drawn, pool counters bumped.
	w.Ready(0)
	w.Ready(1)
	w.Complete(0)
	_ = w.NextMessageID()
	m := w.NewMessage(0, 0, 1, 2, 2)
	w.Pool().Release(m)
	apps[0].counter = 11
	apps[1].counter = 22
	data := saveWorkload(w)

	got, gapps := buildStaterWorkload(t, 2)
	d := snapshot.NewLoader(data)
	if walk(got)(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.Phase() != workload.Generating {
		t.Fatalf("restored phase %v, want generating", got.Phase())
	}
	if gapps[0].counter != 11 || gapps[1].counter != 22 {
		t.Fatalf("restored app counters %d, %d", gapps[0].counter, gapps[1].counter)
	}
	if got.Pool().Stats() != w.Pool().Stats() {
		t.Fatalf("pool stats %+v, want %+v", got.Pool().Stats(), w.Pool().Stats())
	}
	if !bytes.Equal(saveWorkload(got), data) {
		t.Fatal("re-saved workload state is not byte-identical")
	}
	// The restored handshake must accept exactly the outstanding signal.
	got.Complete(1)
	if got.Phase() != workload.Finishing {
		t.Fatalf("phase %v after final Complete", got.Phase())
	}
}

func TestWorkloadSaveRequiresStaterApps(t *testing.T) {
	w, _ := buildWorkload(t, 1) // test_fake does not implement snapshot.Stater
	c := snapshot.NewSaver()
	if w.State(c); c.Err() == nil || !strings.Contains(c.Err().Error(), "not checkpointable") {
		t.Fatalf("saving a non-checkpointable application: err = %v", c.Err())
	}
}

func TestWorkloadLoadRejectsMismatchedBuild(t *testing.T) {
	w, _ := buildStaterWorkload(t, 2)
	data := saveWorkload(w)

	// Fewer applications than the snapshot.
	got, _ := buildStaterWorkload(t, 1)
	if err := snaptest.Load(data, walk(got)); err == nil ||
		!strings.Contains(err.Error(), "applications") {
		t.Fatalf("app count: err = %v", err)
	}

	// Same shape but non-checkpointable applications.
	fw, _ := buildWorkload(t, 2)
	if err := snaptest.Load(data, walk(fw)); err == nil ||
		!strings.Contains(err.Error(), "not checkpointable") {
		t.Fatalf("non-stater: err = %v", err)
	}
}

func TestWorkloadLoadRejectsBadPhase(t *testing.T) {
	w, _ := buildStaterWorkload(t, 1)
	bad := snaptest.Save(func(c *snapshot.Codec) {
		w.Sim().State(c)
		w.OrderState(c, w)
		snaptest.Put(c.Int, 99)
	})
	if err := snaptest.Load(bad, walk(w)); err == nil ||
		!strings.Contains(err.Error(), "phase 99") {
		t.Fatalf("err = %v, want phase error", err)
	}
}

func TestWorkloadLoadRejectsTruncation(t *testing.T) {
	w, _ := buildStaterWorkload(t, 2)
	data := saveWorkload(w)
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		got, _ := buildStaterWorkload(t, 2)
		if err := snaptest.Load(data[:n], walk(got)); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
