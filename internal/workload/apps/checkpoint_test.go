package apps_test

import (
	"bytes"
	"testing"

	"supersim/internal/config"
	"supersim/internal/core"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
	"supersim/internal/workload/apps"
)

const blastCheckpointDoc = `{
	  "type": "blast",
	  "injection_rate": 0.2,
	  "message_size": 2,
	  "warmup_duration": 200,
	  "sample_duration": 800,
	  "traffic": {"type": "uniform_random"}
	}`

const pulseCheckpointDoc = blastCheckpointDoc + `, {
	  "type": "pulse",
	  "injection_rate": 0.5,
	  "count": 5,
	  "delay": 100,
	  "traffic": {"type": "uniform_random"}
	}`

// saveApp serializes one application's checkpoint state. The apps implement
// snapshot.Stater, which the workload drives in registration order; here
// each is driven directly so the package-local state is testable in
// isolation.
func saveApp(sm *core.Simulation, a snapshot.Stater) []byte { return snaptest.Save(walk(sm, a)) }

// walk codes one application after its simulator, as the simulation's walk
// does.
func walk(sm *core.Simulation, a snapshot.Stater) func(*snapshot.Codec) {
	return func(c *snapshot.Codec) {
		sm.Sim.State(c)
		a.State(c)
	}
}

// roundTripApp saves app appIdx of a completed run, loads it into the same
// app of a freshly built (never run) simulation, and requires the restored
// app to re-serialize byte-identically.
func roundTripApp(t *testing.T, doc string, appIdx int) (orig, restored snapshot.Stater) {
	t.Helper()
	sm := core.Build(config.MustParse(doc))
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	a := sm.Workload.App(appIdx).(snapshot.Stater)
	data := saveApp(sm, a)

	sm2 := core.Build(config.MustParse(doc))
	a2 := sm2.Workload.App(appIdx).(snapshot.Stater)
	d := snapshot.NewLoader(data)
	if walk(sm2, a2)(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if !bytes.Equal(saveApp(sm2, a2), data) {
		t.Fatal("re-saved application state is not byte-identical")
	}

	// Error paths: every strict prefix of a valid state must fail to load,
	// never panic or succeed.
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		sm3 := core.Build(config.MustParse(doc))
		a3 := sm3.Workload.App(appIdx).(snapshot.Stater)
		if err := snaptest.Load(data[:n], walk(sm3, a3)); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
	return a, a2
}

func TestBlastStateRoundTrip(t *testing.T) {
	orig, restored := roundTripApp(t, baseDoc(blastCheckpointDoc), 0)
	b, b2 := orig.(*apps.Blast), restored.(*apps.Blast)
	if b2.Generated() != b.Generated() || b2.Generated() == 0 {
		t.Fatalf("generated %d, want %d (nonzero)", b2.Generated(), b.Generated())
	}
	if b2.Stats().Count() != b.Stats().Count() {
		t.Fatalf("sampled %d, want %d", b2.Stats().Count(), b.Stats().Count())
	}
}

func TestPulseStateRoundTrip(t *testing.T) {
	orig, restored := roundTripApp(t, baseDoc(pulseCheckpointDoc), 1)
	p, p2 := orig.(*apps.Pulse), restored.(*apps.Pulse)
	if p2.Stats().Count() != p.Stats().Count() || p2.Stats().Count() != 5*3 {
		t.Fatalf("pulse delivered %d, want %d", p2.Stats().Count(), 5*3)
	}
}

// TestMidRunStateRoundTrip round-trips both applications in the middle of
// the Pulse burst, when each injection line holds every terminal's next
// injection, and holds them to one injection event per due tick first.
func TestMidRunStateRoundTrip(t *testing.T) {
	doc := baseDoc(pulseCheckpointDoc)
	sm := core.Build(config.MustParse(doc))
	sm.Sim.RunUntil(320)
	for i := 0; i < 2; i++ {
		if err := apps.CheckPending(sm.Workload.App(i)); err != nil {
			t.Fatal(err)
		}
		a := sm.Workload.App(i).(snapshot.Stater)
		data := saveApp(sm, a)
		sm2 := core.Build(config.MustParse(doc))
		fresh := sm2.Workload.App(i).(snapshot.Stater)
		if err := snaptest.Load(data, walk(sm2, fresh)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveApp(sm2, fresh), data) {
			t.Fatalf("app %d: re-saved state is not byte-identical", i)
		}
	}
}
