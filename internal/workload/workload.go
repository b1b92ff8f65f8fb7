// Package workload implements the workload side of the simulator: the
// Workload state machine that coordinates multiple overlapping Application
// models through the four-phase handshake protocol, and the demultiplexing
// of delivered messages back to the application that generated them.
//
// The four phases of execution are:
//
//  1. Warming — applications that need simulation time to prepare the
//     network use it; each sends Ready when prepared.
//  2. Generating — after all Ready, the Workload broadcasts Start; this is
//     the primary time to generate traffic to be sampled. Applications send
//     Complete when they have generated their necessary traffic.
//  3. Finishing — after all Complete, the Workload broadcasts Stop; roll
//     over traffic that still needs to be sampled finishes here. Each
//     application sends Done when finished.
//  4. Draining — after all Done, the Workload broadcasts Kill; applications
//     may not generate new traffic, the network drains, the event queue runs
//     empty, and the simulation ends.
//
// This protocol lets applications interoperate without being designed for
// each other — the classic pairing being Blast (steady background traffic)
// and Pulse (a transient disturbance).
package workload

import (
	"fmt"

	"supersim/internal/config"
	"supersim/internal/factory"
	"supersim/internal/network"
	"supersim/internal/sim"
	"supersim/internal/telemetry"
	"supersim/internal/types"
)

// Phase is a workload execution phase.
type Phase int

// The four phases, in order.
const (
	Warming Phase = iota
	Generating
	Finishing
	Draining
)

func (p Phase) String() string {
	switch p {
	case Warming:
		return "warming"
	case Generating:
		return "generating"
	case Finishing:
		return "finishing"
	case Draining:
		return "draining"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Application is the abstract traffic generator. One Application spans all
// network endpoints (it constructs one logical terminal per endpoint) and
// obeys the workload handshake: it receives Start/Stop/Kill commands and
// answers with Ready/Complete/Done signals on its Workload.
type Application interface {
	// Start puts the application in the generating phase.
	Start()
	// Stop puts the application in the finishing phase.
	Stop()
	// Kill puts the application in the draining phase; no further traffic
	// may be generated.
	Kill()
	// DeliverMessage hands the application one of its own delivered
	// messages.
	DeliverMessage(m *types.Message)
}

// Ctor is the constructor signature registered by application models.
type Ctor func(s *sim.Simulator, cfg *config.Settings, w *Workload, appID int, net network.Network) Application

// Registry holds all application implementations.
var Registry = factory.NewRegistry[Ctor]("application")

// Workload is the state machine that monitors and controls the execution of
// all applications.
type Workload struct {
	sim.ComponentBase
	net  network.Network
	apps []Application

	phase    Phase
	ready    []bool
	complete []bool
	done     []bool
	pending  int

	msgID uint64
	pool  *types.Pool

	// telemetry probe and span recorder, nil unless attached to the simulator
	tp *telemetry.WorkloadProbe
	sp *telemetry.Spans

	// PhaseTimes records when each phase began (tick), indexed by Phase.
	PhaseTimes [4]sim.Tick
}

// New builds the workload and its applications from the "workload" settings
// block, whose "applications" array holds one settings object per
// application, and registers the message demultiplexer on every interface.
func New(s *sim.Simulator, cfg *config.Settings, net network.Network) *Workload {
	w := &Workload{
		ComponentBase: sim.NewComponentBase(s, "workload"),
		net:           net,
		pool:          types.NewPool(),
	}
	raw := cfg.Array("applications")
	if len(raw) == 0 {
		panic("workload: at least one application required")
	}
	w.ready = make([]bool, len(raw))
	w.complete = make([]bool, len(raw))
	w.done = make([]bool, len(raw))
	w.pending = len(raw)
	for i, el := range raw {
		m, ok := el.(map[string]any)
		if !ok {
			panic(fmt.Sprintf("workload: applications[%d] must be an object", i))
		}
		appCfg := config.FromMap(m)
		ctor := Registry.MustLookup(appCfg.String("type"))
		w.apps = append(w.apps, ctor(s, appCfg, w, i, net))
	}
	for t := 0; t < net.NumTerminals(); t++ {
		net.Interface(t).SetMessageSink(&demux{w: w})
	}
	w.tp = telemetry.ForWorkload(s, len(w.apps), net.NumTerminals(), net.ChannelPeriod())
	w.tp.Phase(Warming.String())
	w.sp = telemetry.SpansFor(s)
	return w
}

// ProcessEvent is unused; the workload reacts synchronously to signals.
func (w *Workload) ProcessEvent(ev *sim.Event) {
	w.Panicf("workload received unexpected event %d", ev.Type)
}

// Phase returns the current workload phase.
func (w *Workload) Phase() Phase { return w.phase }

// App returns application i.
func (w *Workload) App(i int) Application { return w.apps[i] }

// NumApps returns the number of applications.
func (w *Workload) NumApps() int { return len(w.apps) }

// Network returns the network the workload drives.
func (w *Workload) Network() network.Network { return w.net }

// NextMessageID allocates a globally unique message ID.
func (w *Workload) NextMessageID() uint64 {
	w.msgID++
	return w.msgID
}

// Pool returns the workload's message pool.
func (w *Workload) Pool() *types.Pool { return w.pool }

// SetPool replaces the workload's message pool. It must be called before any
// traffic is generated; the main use is sharing one pool across sequential
// runs (e.g. determinism tests of warm-pool behavior). The pool is
// single-threaded — never share one across concurrently running simulations.
func (w *Workload) SetPool(p *types.Pool) {
	if p == nil {
		w.Panicf("SetPool(nil)")
	}
	w.pool = p
}

// NewMessage allocates a message ID and draws a recycled message of the
// requested shape from the workload's pool. Applications inject with this
// rather than types.NewMessage so the steady-state traffic path stays
// allocation-free.
func (w *Workload) NewMessage(app, src, dst, totalFlits, maxPacketSize int) *types.Message {
	w.msgID++
	w.tp.MessageOffered(app, totalFlits)
	return w.pool.NewMessage(w.msgID, app, src, dst, totalFlits, maxPacketSize)
}

// Ready signals that application app finished warming. When all applications
// have reported Ready the Workload simultaneously sends Start to all.
func (w *Workload) Ready(app int) {
	w.signal(app, Warming, w.ready, func() {
		w.phase = Generating
		w.PhaseTimes[Generating] = w.Sim().Now().Tick
		for _, a := range w.apps {
			a.Start()
		}
	})
}

// Complete signals that application app performed its necessary traffic
// generation. When all have completed the Workload sends Stop to all.
func (w *Workload) Complete(app int) {
	w.signal(app, Generating, w.complete, func() {
		w.phase = Finishing
		w.PhaseTimes[Finishing] = w.Sim().Now().Tick
		for _, a := range w.apps {
			a.Stop()
		}
	})
}

// Done signals that application app finished its roll-over traffic. When all
// are done the Workload sends Kill to all and the network drains.
func (w *Workload) Done(app int) {
	w.signal(app, Finishing, w.done, func() {
		w.phase = Draining
		w.PhaseTimes[Draining] = w.Sim().Now().Tick
		for _, a := range w.apps {
			a.Kill()
		}
	})
}

func (w *Workload) signal(app int, want Phase, flags []bool, advance func()) {
	if app < 0 || app >= len(w.apps) {
		w.Panicf("signal from unknown application %d", app)
	}
	if w.phase != want {
		w.Panicf("application %d signaled during %v, want %v", app, w.phase, want)
	}
	if flags[app] {
		w.Panicf("application %d signaled twice in %v", app, w.phase)
	}
	flags[app] = true
	w.pending--
	if w.pending == 0 {
		w.pending = len(w.apps)
		advance()
		w.tp.Phase(w.phase.String())
	}
}

// demux routes a delivered message to the application that created it.
type demux struct {
	w *Workload
}

// DeliverMessage implements netiface.MessageSink. This is the message
// retirement point: once the owning application has recorded its statistics
// and returned, no component holds a reference to the message, so its blocks
// are recycled through the workload's pool.
func (d *demux) DeliverMessage(m *types.Message) {
	app := int(m.App)
	if app < 0 || app >= len(d.w.apps) {
		panic(fmt.Sprintf("workload: message %d from unknown application %d", m.ID, app))
	}
	d.w.tp.MessageDelivered(app, m.TotalFlits(), m.ReceiveTime-m.CreateTime)
	// Close the span before the message's blocks return to the pool.
	d.w.sp.Finish(m)
	d.w.apps[app].DeliverMessage(m)
	d.w.pool.Release(m)
}
