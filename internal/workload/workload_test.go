package workload_test

import (
	"testing"

	"supersim/internal/config"
	"supersim/internal/network"
	_ "supersim/internal/network/parkinglot"
	"supersim/internal/sim"
	"supersim/internal/types"
	"supersim/internal/workload"
)

// fakeApp records the commands it receives and exposes the signal methods.
type fakeApp struct {
	w         *workload.Workload
	id        int
	started   int
	stopped   int
	killed    int
	delivered []*types.Message
}

func (a *fakeApp) Start()                          { a.started++ }
func (a *fakeApp) Stop()                           { a.stopped++ }
func (a *fakeApp) Kill()                           { a.killed++ }
func (a *fakeApp) DeliverMessage(m *types.Message) { a.delivered = append(a.delivered, m) }

var fakes []*fakeApp

func init() {
	workload.Registry.Register("test_fake",
		func(s *sim.Simulator, cfg *config.Settings, w *workload.Workload, appID int, net network.Network) workload.Application {
			a := &fakeApp{w: w, id: appID}
			fakes = append(fakes, a)
			return a
		})
}

func buildWorkload(t *testing.T, numApps int) (*workload.Workload, []*fakeApp) {
	t.Helper()
	fakes = nil
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
		apps += `{"type": "test_fake"}`
	}
	apps += `]}`
	w := workload.New(s, config.MustParse(apps), net)
	return w, fakes
}

func TestFourPhaseHandshake(t *testing.T) {
	w, apps := buildWorkload(t, 2)
	if w.Phase() != workload.Warming {
		t.Fatal("must start warming")
	}
	w.Ready(0)
	if w.Phase() != workload.Warming || apps[0].started != 0 {
		t.Fatal("Start must wait for all Ready signals")
	}
	w.Ready(1)
	if w.Phase() != workload.Generating {
		t.Fatal("all Ready must advance to generating")
	}
	if apps[0].started != 1 || apps[1].started != 1 {
		t.Fatal("Start must broadcast to all applications")
	}
	w.Complete(1)
	if w.Phase() != workload.Generating || apps[0].stopped != 0 {
		t.Fatal("Stop must wait for all Complete signals")
	}
	w.Complete(0)
	if w.Phase() != workload.Finishing || apps[0].stopped != 1 || apps[1].stopped != 1 {
		t.Fatal("all Complete must broadcast Stop")
	}
	w.Done(0)
	w.Done(1)
	if w.Phase() != workload.Draining || apps[0].killed != 1 || apps[1].killed != 1 {
		t.Fatal("all Done must broadcast Kill")
	}
	if w.PhaseTimes[workload.Generating] > w.PhaseTimes[workload.Draining] {
		t.Fatal("phase times must be ordered")
	}
}

func TestSignalValidation(t *testing.T) {
	w, _ := buildWorkload(t, 2)
	mustPanic(t, func() { w.Complete(0) }) // wrong phase
	mustPanic(t, func() { w.Done(0) })     // wrong phase
	w.Ready(0)
	mustPanic(t, func() { w.Ready(0) })  // double signal
	mustPanic(t, func() { w.Ready(99) }) // unknown app
	mustPanic(t, func() { w.Ready(-1) })
}

func TestSingleAppFastPath(t *testing.T) {
	w, apps := buildWorkload(t, 1)
	w.Ready(0)
	w.Complete(0)
	w.Done(0)
	if w.Phase() != workload.Draining {
		t.Fatalf("phase %v", w.Phase())
	}
	if apps[0].started != 1 || apps[0].stopped != 1 || apps[0].killed != 1 {
		t.Fatal("commands not delivered")
	}
}

func TestDemuxRoutesByApp(t *testing.T) {
	w, apps := buildWorkload(t, 2)
	net := w.Network()
	m0 := types.NewMessage(w.NextMessageID(), 0, 0, 1, 1, 1)
	m1 := types.NewMessage(w.NextMessageID(), 1, 0, 1, 1, 1)
	// Deliver through the interface's sink (set by workload.New).
	sinkDeliver(t, net, m0)
	sinkDeliver(t, net, m1)
	if len(apps[0].delivered) != 1 || apps[0].delivered[0] != m0 {
		t.Fatal("app 0 demux wrong")
	}
	if len(apps[1].delivered) != 1 || apps[1].delivered[0] != m1 {
		t.Fatal("app 1 demux wrong")
	}
}

// sinkDeliver pushes a message through interface 1's registered sink by
// simulating the full flit delivery path.
func sinkDeliver(t *testing.T, net network.Network, m *types.Message) {
	t.Helper()
	// The workload installed a demux sink on every interface; exercise it
	// via the interface's ReceiveFlit path would require channel plumbing,
	// so deliver via the sink directly through a one-flit walk:
	ifc := net.Interface(1)
	_ = ifc
	// Interfaces expose the sink only internally; emulate by calling the
	// demux through a delivered flit:
	net.Interface(1).ReceiveFlit(0, 0, m.Packet(0).Flit(0))
}

func TestNextMessageIDUnique(t *testing.T) {
	w, _ := buildWorkload(t, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		id := w.NextMessageID()
		if seen[id] {
			t.Fatal("duplicate message id")
		}
		seen[id] = true
	}
}

func TestWorkloadRequiresApplications(t *testing.T) {
	s := sim.NewSimulator(1)
	netCfg := config.MustParse(`{
	  "topology": "parking_lot",
	  "routers": 2,
	  "channel": {"latency": 2, "period": 1},
	  "injection": {"latency": 1},
	  "router": {"architecture": "input_queued", "num_vcs": 1, "input_buffer_depth": 4, "crossbar_latency": 1}
	}`)
	net := network.New(s, netCfg)
	mustPanic(t, func() { workload.New(s, config.MustParse(`{"applications": []}`), net) })
	mustPanic(t, func() { workload.New(s, config.MustParse(`{"applications": [5]}`), net) })
}

func TestPhaseString(t *testing.T) {
	names := map[workload.Phase]string{
		workload.Warming:    "warming",
		workload.Generating: "generating",
		workload.Finishing:  "finishing",
		workload.Draining:   "draining",
		workload.Phase(9):   "phase(9)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("%v", p)
		}
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
