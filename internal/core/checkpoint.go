// Checkpoint/restore for assembled simulations.
//
// A snapshot is a complete, versioned serialization of simulator state at a
// tick boundary T: the settings document, every PRNG stream, all live
// messages, every component's mutable state, the verify and telemetry
// registries, and the merged event queue in partition-independent order.
// Restore rebuilds the identical component graph by re-running Build on the
// embedded settings — construction is deterministic, so every component
// reoccupies its construction-order slot — then overwrites the fresh state
// with the snapshot's and re-injects the saved events with their exact
// ordering keys. Because event records are keyed by (tick, epsilon, owner,
// oseq) and component state is serialized per component rather than per
// shard, a snapshot taken at one worker count restores into any other with
// identical results.
package core

import (
	"fmt"

	"supersim/internal/config"
	"supersim/internal/router"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/types"
)

// Snapshot section tags, in stream order.
const (
	secConfig    = "CFG"
	secTime      = "TIM"
	secSim       = "SIM"
	secMessages  = "MSG"
	secWorkload  = "WKL"
	secNetwork   = "NET"
	secVerify    = "VER"
	secTelemetry = "TEL"
	secEvents    = "EVQ"
)

// keyed is the view of a component the checkpoint machinery needs: it
// processes events, carries a construction-order key, and knows its owning
// (possibly shard) simulator. Every type embedding sim.ComponentBase
// satisfies it.
type keyed interface {
	sim.Handler
	OrderKey() uint32
	Sim() *sim.Simulator
}

// handlers walks every component that can own queued events, in a fixed
// deterministic order. fn receives each component exactly once.
func (sm *Simulation) handlers(fn func(keyed) error) error {
	add := func(what string, c any) error {
		k, ok := c.(keyed)
		if !ok {
			return fmt.Errorf("core: %s (%T) does not embed sim.ComponentBase and cannot be checkpointed", what, c)
		}
		return fn(k)
	}
	if err := add("workload", sm.Workload); err != nil {
		return err
	}
	for i := 0; i < sm.Workload.NumApps(); i++ {
		if err := add(fmt.Sprintf("application %d", i), sm.Workload.App(i)); err != nil {
			return err
		}
	}
	for i := 0; i < sm.Net.NumRouters(); i++ {
		if err := add(fmt.Sprintf("router %d", i), sm.Net.Router(i)); err != nil {
			return err
		}
	}
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		if err := add(fmt.Sprintf("interface %d", i), sm.Net.Interface(i)); err != nil {
			return err
		}
	}
	for i, l := range sm.Net.Links() {
		if err := add(fmt.Sprintf("link %d flit channel", i), l.Ch); err != nil {
			return err
		}
		if err := add(fmt.Sprintf("link %d credit channel", i), l.Cr); err != nil {
			return err
		}
	}
	if sm.Verify != nil {
		if err := add("verifier", sm.Verify); err != nil {
			return err
		}
	}
	if sm.Telemetry != nil {
		if err := add("telemetry", sm.Telemetry); err != nil {
			return err
		}
	}
	return nil
}

// sims returns every simulator of the partition (just the host when serial).
func (sm *Simulation) sims() []*sim.Simulator {
	if len(sm.Shards) == 0 {
		return []*sim.Simulator{sm.Sim}
	}
	out := make([]*sim.Simulator, len(sm.Shards))
	for i, sh := range sm.Shards {
		out[i] = sh.Sim
	}
	return out
}

// state is the one walk over every stateful component, shared by Snapshot
// and Restore: the SIM…TEL sections in stream order. A saving walk has a
// table already populated by collect; a loading walk fills it in the MSG
// section, before the components that hold references into it. A failed
// section tag ends the walk; within a section the codec's sticky error turns
// the remaining reads into no-ops.
func (sm *Simulation) state(c *snapshot.Codec, table *types.MessageTable) {
	// Host simulator core state: scheduling counters and every PRNG stream.
	// Components are constructed against the host, so the host owns all order
	// keys and derived streams regardless of the partition.
	if c.Section(secSim) != nil {
		return
	}
	sm.Sim.State(c)

	if c.Section(secMessages) != nil {
		return
	}
	vcs := sm.Net.Router(0).NumVCs()
	table.State(c, sm.Workload.Pool(), types.Bounds{
		Terminals: sm.Net.NumTerminals(),
		Apps:      sm.Workload.NumApps(),
		VCs:       vcs,
	})

	if c.Section(secWorkload) != nil {
		return
	}
	sm.Workload.State(c)

	if c.Section(secNetwork) != nil {
		return
	}
	for i := 0; i < sm.Net.NumRouters(); i++ {
		st, ok := sm.Net.Router(i).(router.Stater)
		if !ok {
			c.Failf("router %d (%T) does not support checkpointing", i, sm.Net.Router(i))
			return
		}
		st.State(c, table)
	}
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		sm.Net.Interface(i).State(c, table)
	}
	for _, l := range sm.Net.Links() {
		l.Ch.State(c, table)
		l.Cr.State(c, vcs)
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
		sm.Telemetry.State(c)
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

// collect gathers the live messages from every flit- or packet-holding
// component into a saving walk's table.
func (sm *Simulation) collect(table *types.MessageTable) {
	for i := 0; i < sm.Net.NumTerminals(); i++ {
		sm.Net.Interface(i).Collect(table)
	}
	for i := 0; i < sm.Net.NumRouters(); i++ {
		if st, ok := sm.Net.Router(i).(router.Stater); ok {
			st.Collect(table)
		}
	}
	for _, l := range sm.Net.Links() {
		l.Ch.Collect(table)
	}
}

// Snapshot serializes the complete simulation state at the tick boundary T.
// The simulation must be paused at T: serially, after RunUntil(T); sharded,
// after Engine.RunUntil(T) followed by DrainCross, so every cross-shard post
// has become a locally queued event.
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

	// Partition-independent progress totals: the per-shard split of executed
	// events depends on the worker count, so only the run-wide sums are state.
	var executed uint64
	var last sim.Time
	for _, s := range sm.sims() {
		executed += s.Executed()
		if last.Before(s.LastWork()) {
			last = s.LastWork()
		}
	}
	c.Section(secTime)
	progress(c, &tick, &executed, &last)

	table := types.NewMessageTable()
	sm.collect(table)
	sm.state(c, table)

	// The merged event queue: records from every shard, sorted by the queue's
	// total order so the bytes are partition-independent.
	var recs []sim.EventRecord
	for _, s := range sm.sims() {
		r, err := s.ExportEvents()
		if err != nil {
			return nil, err
		}
		recs = append(recs, r...)
	}
	sim.SortEventRecords(recs)
	c.Section(secEvents)
	c.Len(len(recs))
	for i := range recs {
		recs[i].State(c)
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	sm.snapLen = len(c.Bytes())
	return c.Bytes(), nil
}

// progress codes the TIM section: the checkpoint tick and the run-wide
// executed-event and last-work totals.
func progress(c *snapshot.Codec, tick *sim.Tick, executed *uint64, last *sim.Time) {
	snapshot.Uint(c, tick)
	c.U64(executed)
	snapshot.Uint(c, &last.Tick)
	snapshot.Uint(c, &last.Eps)
}

// Restore rebuilds a simulation from snapshot bytes and returns it with the
// checkpoint tick. workers overrides the snapshot's simulation.workers when
// positive; zero keeps the snapshot's configured value. Any panic on the
// decode path (including a Build failure on a corrupted embedded config) is
// recovered into an error — a snapshot is external input and must never
// crash the process.
func Restore(data []byte, workers int) (sm *Simulation, tick sim.Tick, err error) {
	defer func() {
		if r := recover(); r != nil {
			sm, tick, err = nil, 0, fmt.Errorf("core: restore failed: %v", r)
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
	if workers > 0 {
		cfg.Set("simulation.workers", workers)
	}

	c.Section(secTime)
	var executed uint64
	var last sim.Time
	progress(c, &tick, &executed, &last)
	if c.Err() != nil {
		return nil, 0, c.Err()
	}

	sm = Build(cfg)
	sm.state(c, types.NewMessageTable())
	if c.Err() != nil {
		return nil, 0, c.Err()
	}

	// Event queue: map each record's owner key back to the rebuilt component
	// and inject it — on the component's owning simulator, so a record lands
	// on whichever shard the new partition placed its handler.
	keyMap := map[uint32]keyed{}
	if err := sm.handlers(func(k keyed) error {
		if prev, dup := keyMap[k.OrderKey()]; dup {
			return fmt.Errorf("core: components share construction-order key %d (%T, %T)", k.OrderKey(), prev, k)
		}
		keyMap[k.OrderKey()] = k
		return nil
	}); err != nil {
		return nil, 0, err
	}
	c.Section(secEvents)
	n := c.Len(0)
	if c.Err() != nil {
		return nil, 0, c.Err()
	}
	// The fresh build scheduled its own initial events (application init,
	// observer daemons); the snapshot's queue holds their in-flight
	// successors, so the initial set is dropped wholesale before injection.
	for _, s := range sm.sims() {
		s.ResetQueue()
	}
	for i := 0; i < n; i++ {
		var r sim.EventRecord
		r.State(c)
		if c.Err() != nil {
			return nil, 0, c.Err()
		}
		if r.Tick < tick {
			return nil, 0, c.Failf("event %d at tick %d predates the checkpoint tick %d", i, r.Tick, tick)
		}
		h, ok := keyMap[r.Owner]
		if !ok {
			return nil, 0, c.Failf("event %d owned by unknown component key %d", i, r.Owner)
		}
		h.Sim().InjectEvent(h, r)
	}
	if err := c.Done(); err != nil {
		return nil, 0, err
	}

	for _, s := range sm.sims() {
		s.SetNow(sim.Time{Tick: tick})
	}
	// Run-wide progress totals live on the host; shard counters stay zero.
	sm.Sim.SetProgress(executed, last)
	if sm.engine != nil {
		// Every queued event is at tick or later, so every shard has
		// vacuously committed the checkpoint tick; without this the first
		// phase would crawl from tick 0 in empty lookahead windows.
		sm.engine.SeedCommit(tick)
	}
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
	first := (sm.Sim.Now().Tick/every + 1) * every
	var events uint64
	var end sim.Time
	if sm.engine != nil {
		for at := first; ; at += every {
			sm.engine.RunUntil(at)
			sm.engine.DrainCross()
			if sm.engine.Stopped() || sm.engine.Quiesced() {
				break
			}
			if err := checkpoint(at); err != nil {
				return Result{}, err
			}
		}
		sm.engine.RunUntil(^sim.Tick(0))
		events, end = sm.engine.Finish()
	} else {
		for at := first; ; at += every {
			sm.Sim.RunUntil(at)
			if sm.Sim.Stopped() || sm.Sim.PendingNonDaemon() == 0 {
				break
			}
			if err := checkpoint(at); err != nil {
				return Result{}, err
			}
		}
		// Trailing daemon events and the final monitor flush, exactly as an
		// un-checkpointed serial Run would.
		sm.Sim.Run()
		events = sm.Sim.Executed()
		end = sm.Sim.LastWork()
	}
	return sm.verifyOutcome(events, end)
}
