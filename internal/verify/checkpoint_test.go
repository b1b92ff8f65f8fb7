package verify

import (
	"bytes"
	"strings"
	"testing"

	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
)

// buildVerifier attaches a verifier to a fresh simulator, the shape every
// checkpoint test restores into.
func buildVerifier(epoch sim.Tick) *Verifier {
	return Attach(sim.NewSimulator(1), Options{WatchdogEpoch: epoch})
}

// walk codes a verifier after its simulator, as the simulation's walk does.
func walk(v *Verifier) func(*snapshot.Codec) {
	return func(c *snapshot.Codec) {
		v.Sim().State(c)
		v.State(c)
	}
}

func saveVerifier(v *Verifier) []byte { return snaptest.Save(walk(v)) }

func TestVerifierStateRoundTrip(t *testing.T) {
	v := buildVerifier(100)
	v.injected = 12
	v.retired = 5
	v.activity = 50
	v.lastActivity = 42
	data := saveVerifier(v)

	got := buildVerifier(100)
	d := snapshot.NewLoader(data)
	if walk(got)(d); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after load", d.Remaining())
	}
	if got.Injected() != 12 || got.Retired() != 5 || got.InFlight() != 7 {
		t.Fatalf("counters: injected %d retired %d", got.Injected(), got.Retired())
	}
	if got.activity != 50 || got.lastActivity != 42 {
		t.Fatalf("watchdog counters: activity %d last %d", got.activity, got.lastActivity)
	}
	if !bytes.Equal(saveVerifier(got), data) {
		t.Fatal("re-saved verifier state is not byte-identical")
	}
}

func TestVerifierLoadRejectsMismatchedBuild(t *testing.T) {
	v := buildVerifier(100)
	v.injected, v.retired = 3, 1
	data := saveVerifier(v)
	err := snaptest.Load(data, walk(buildVerifier(0)))
	if err == nil || !strings.Contains(err.Error(), "watchdog state") {
		t.Errorf("watchdog off: err = %v, want substring %q", err, "watchdog state")
	}
}

func TestVerifierLoadRejectsTruncation(t *testing.T) {
	data := saveVerifier(buildVerifier(100))
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if err := snaptest.Load(data[:n], walk(buildVerifier(100))); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", n)
		}
	}
}
