// Checkpoint/restore for assembled simulations.
//
// A snapshot is a complete, versioned serialization of simulator state at a
// tick boundary T: the settings document, every PRNG stream, every
// component's mutable state with each live message at its first reference,
// the verify and telemetry registries, and the event queue sorted by its
// total order. Restore rebuilds the identical component graph by re-running
// Build on the embedded settings — construction is deterministic, so every
// component reoccupies its construction-order slot — then overwrites the
// fresh state with the snapshot's and re-injects the saved events with their
// exact (tick, epsilon, owner, oseq) ordering keys, so the restored run
// continues exactly as the uninterrupted one.
package core

import (
	"fmt"

	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/types"
)

// Snapshot section tags, in stream order.
const (
	secConfig    = "CFG"
	secTime      = "TIM"
	secSim       = "SIM"
	secWorkload  = "WKL"
	secNetwork   = "NET"
	secVerify    = "VER"
	secTelemetry = "TEL"
	secEvents    = "EVQ"
)

// state is the one walk over every stateful component, shared by Snapshot
// and Restore: the SIM…TEL sections in stream order. Each message is coded
// in full at its first reference, so the walk's message table needs no
// pass of its own, and each component that owns events names itself to the
// simulator's owner table as the walk codes it. A failed section tag ends
// the walk; within a section the codec's sticky error turns the remaining
// reads into no-ops.
func (sm *Simulation) state(c *snapshot.Codec) {
	// Simulator core state: scheduling counters and every PRNG stream.
	if c.Section(secSim) != nil {
		return
	}
	sm.Sim.State(c)

	if c.Section(secWorkload) != nil {
		return
	}
	sm.Workload.State(c)

	if c.Section(secNetwork) != nil {
		return
	}
	vcs := sm.Net.Router(0).NumVCs()
	// The span recorder, coded last, links its open spans to the messages
	// this table holds.
	table := types.NewMessageTable(sm.Workload.Pool(), types.Bounds{
		Terminals: sm.Net.NumTerminals(),
		Apps:      sm.Workload.NumApps(),
	})
	for i := 0; i < sm.Net.NumRouters(); i++ {
		sm.Net.Router(i).State(c, table)
		sm.Net.Router(i).Arrivals().State(c, table, vcs)
	}
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		sm.Net.Interface(i).State(c, table)
		sm.Net.Interface(i).Arrivals().State(c, table, vcs)
	}
	for _, l := range sm.Net.Links() {
		l.Ch.State(c)
	}

	if c.Section(secVerify) != nil {
		return
	}
	attached(c, "verifier", sm.Verify != nil)
	if sm.Verify != nil {
		sm.Verify.State(c)
	}

	if c.Section(secTelemetry) != nil {
		return
	}
	attached(c, "telemetry", sm.Telemetry != nil)
	if sm.Telemetry != nil {
		sm.Telemetry.State(c, table)
	}
}

// attached codes whether an optional subsystem is present; a snapshot that
// disagrees with the rebuilt simulation was taken from a different build.
func attached(c *snapshot.Codec, what string, have bool) {
	got := have
	c.Bool(&got)
	if c.Err() == nil && got != have {
		c.Failf("snapshot %s state %v, rebuilt simulation %v", what, got, have)
	}
}

// Snapshot serializes the complete simulation state at the tick boundary T.
// The simulation must be paused at T, after RunUntil(T).
func (sm *Simulation) Snapshot(tick sim.Tick) ([]byte, error) {
	// A run's snapshots grow as its samples accumulate. Twice the last one's
	// length is the capacity appending would reach by doubling, allocated
	// once instead of once per doubling.
	c := snapshot.NewSaverCap(2 * sm.snapLen)
	c.Header()

	// Restore re-parses the settings and rebuilds via Build before it can
	// walk any component, which is why this prefix is not part of state.
	c.Section(secConfig)
	cfgJSON := []byte(sm.cfg.JSON())
	c.Blob(&cfgJSON)

	executed, last := sm.Sim.Executed(), sm.Sim.LastWork()
	c.Section(secTime)
	progress(c, &tick, &executed, &last)

	sm.state(c)

	// The event queue, sorted by its total order so the bytes do not depend
	// on the queue's internal layout. Restore re-binds each event to the
	// component the walk coded under its owner key, so an event no State
	// method owns would make a snapshot that cannot be restored.
	recs, err := sm.Sim.ExportEvents()
	if err != nil {
		return nil, err
	}
	sim.SortEventRecords(recs)
	c.Section(secEvents)
	c.Len(len(recs))
	for i := range recs {
		if _, ok := sm.Sim.Owner(recs[i].Owner); !ok {
			return nil, c.Failf("event at tick %d is owned by component key %d, which no State method codes", recs[i].Tick, recs[i].Owner)
		}
		recs[i].State(c)
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	sm.snapLen = len(c.Bytes())
	return c.Bytes(), nil
}

// progress codes the TIM section: the checkpoint tick and the
// executed-event and last-work totals.
func progress(c *snapshot.Codec, tick *sim.Tick, executed *uint64, last *sim.Time) {
	snapshot.Uint(c, tick)
	c.U64(executed)
	snapshot.Uint(c, &last.Tick)
	snapshot.Uint(c, &last.Eps)
}

// Restore rebuilds a simulation from snapshot bytes and returns it with the
// checkpoint tick. Any panic on the decode path (including a Build failure on
// a corrupted embedded config) is recovered into an error — a snapshot is
// external input and must never crash the process.
//
// The second parameter is ignored; benchmark/child.go still passes it (ROADMAP 4(a)).
func Restore(data []byte, _ int) (sm *Simulation, tick sim.Tick, err error) {
	var built *Simulation
	defer func() {
		if r := recover(); r != nil {
			sm, tick, err = nil, 0, fmt.Errorf("core: restore failed: %v", r)
		}
		if err != nil && built != nil {
			// The rebuilt simulation never runs: its telemetry files are
			// closed with nothing written to them.
			for _, f := range built.files {
				f.Close()
			}
		}
	}()
	c := snapshot.NewLoader(data)
	c.Header()

	c.Section(secConfig)
	var cfgJSON []byte
	c.Blob(&cfgJSON)
	if c.Err() != nil {
		return nil, 0, c.Err()
	}
	cfg, err := config.Parse(cfgJSON)
	if err != nil {
		return nil, 0, fmt.Errorf("core: snapshot config: %w", err)
	}
	c.Section(secTime)
	var executed uint64
	var last sim.Time
	progress(c, &tick, &executed, &last)
	if c.Err() != nil {
		return nil, 0, c.Err()
	}

	sm = Build(cfg)
	built = sm
	sm.state(c)
	if c.Err() != nil {
		return nil, 0, c.Err()
	}

	// Event queue: each record's owner key names a component the walk coded,
	// and the records are in queue order, which InjectEvent checks.
	c.Section(secEvents)
	n := c.Len(0)
	if c.Err() != nil {
		return nil, 0, c.Err()
	}
	// The fresh build scheduled its own initial events (application init,
	// observer daemons); the snapshot's queue holds their in-flight
	// successors, so the initial set is dropped wholesale before injection.
	sm.Sim.ResetQueue()
	for i := 0; i < n; i++ {
		var r sim.EventRecord
		r.State(c)
		if c.Err() != nil {
			return nil, 0, c.Err()
		}
		if r.Tick < tick {
			return nil, 0, c.Failf("event %d at tick %d predates the checkpoint tick %d", i, r.Tick, tick)
		}
		h, ok := sm.Sim.Owner(r.Owner)
		if !ok {
			return nil, 0, c.Failf("event %d owned by unknown component key %d", i, r.Owner)
		}
		if err := sm.Sim.InjectEvent(h, r); err != nil {
			return nil, 0, c.Failf("event %d: %v", i, err)
		}
	}
	if err := c.Done(); err != nil {
		return nil, 0, err
	}

	sm.Sim.SetNow(sim.Time{Tick: tick})
	sm.Sim.SetProgress(executed, last)
	return sm, tick, nil
}

// RunCheckpointed executes the simulation to completion like Run, pausing at
// every multiple of `every` ticks while real work remains to hand a snapshot
// to sink. The first pause is the first multiple after the current tick, so
// a restored simulation does not re-write the checkpoints it has passed. The
// checkpoint boundaries are invisible to the simulation — a checkpointed
// run's results are identical to an uninterrupted one's — and sink errors
// abort the run.
func (sm *Simulation) RunCheckpointed(every sim.Tick, sink func(tick sim.Tick, data []byte) error) (res Result, err error) {
	if every == 0 {
		return Result{}, fmt.Errorf("core: checkpoint interval must be positive")
	}
	defer sm.closeTelemetry(&err)
	checkpoint := func(at sim.Tick) error {
		data, err := sm.Snapshot(at)
		if err != nil {
			return err
		}
		return sink(at, data)
	}
	for at := (sm.Sim.Now().Tick/every + 1) * every; ; at += every {
		sm.Sim.RunUntil(at)
		if sm.Sim.Stopped() || sm.Sim.PendingNonDaemon() == 0 {
			break
		}
		if err := checkpoint(at); err != nil {
			return Result{}, err
		}
	}
	// Trailing daemon events and the final monitor flush, exactly as an
	// un-checkpointed Run would.
	sm.Sim.Run()
	return sm.verifyOutcome()
}
