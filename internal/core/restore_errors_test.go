package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
	"supersim/internal/types"
)

// smallSnapshot captures one snapshot of the smallest golden topology.
func smallSnapshot(t *testing.T) []byte {
	t.Helper()
	gc := goldenCases()[4] // parking_lot
	sm := Build(config.MustParse(gc.doc))
	var seed []byte
	if _, err := sm.RunCheckpointed(checkpointEvery, func(tick sim.Tick, data []byte) error {
		if seed == nil {
			seed = append([]byte(nil), data...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seed == nil {
		t.Fatal("no snapshot captured")
	}
	return seed
}

func TestConfigAccessor(t *testing.T) {
	cfg := config.MustParse(goldenCases()[4].doc)
	sm := Build(cfg)
	if sm.Config() != cfg {
		t.Fatal("Config() does not return the build settings")
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	data := smallSnapshot(t)

	if _, _, err := Restore([]byte("not a snapshot at all"), 0); err == nil {
		t.Fatal("garbage header restored without error")
	}

	// Corrupt the embedded config document (it sits right after the header
	// and section tag, as a length-prefixed blob) so Build's input is invalid
	// JSON: Restore must report a config error, not panic.
	idx := bytes.Index(data, []byte(`"topology"`))
	if idx < 0 {
		t.Fatal("embedded config not found in snapshot")
	}
	bad := append([]byte(nil), data...)
	bad[idx] = 'X'
	if _, _, err := Restore(bad, 0); err == nil ||
		!strings.Contains(err.Error(), "config") {
		t.Fatalf("corrupted config: err = %v", err)
	}

	// Every strict prefix must fail cleanly, whichever section it lands in.
	for n := 0; n < len(data); n += 1 + len(data)/64 {
		if _, _, err := Restore(data[:n], 0); err == nil {
			t.Fatalf("truncation to %d of %d bytes restored without error", n, len(data))
		}
	}
}

// TestRestoreRejectsVersion2 pins the one decode path: schema v2 stored the
// routers' per-port drain flags and delay-line scheduled bits and both of a
// credit sensor's histories, v3 stored in-flight flits and credits in their
// channels instead of their receivers' arrival lines, v4 stored two
// timestamps per flit and an injection time per message, and Blast's packet
// rows of single-packet messages, v5 stored the live messages in a section
// of their own and a foreign-handler sequence counter, v6 stored a VC in
// every flit of every live message, v7 stored no congestion sensor change
// log, v8 stored crossbar rate-limit windows, the base PRNG, a context flag
// per event and a routed-flit counter per router, and this build reads v9
// only.
func TestRestoreRejectsVersion2(t *testing.T) {
	data := smallSnapshot(t)
	for _, old := range []byte{2, 3, 4, 5, 6, 7, 8} {
		stale := append([]byte(snapshot.Magic), old)
		stale = append(stale, data[len(snapshot.Magic)+1:]...)
		want := fmt.Sprintf("unsupported schema version %d (this build reads version 9)", old)
		if _, _, err := Restore(stale, 0); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d-headed snapshot: err = %v, want %q", old, err, want)
		}
	}
}

// midRunSnapshot runs the smallest golden topology to pinnedTick and
// snapshots it there, returning the paused simulation with the bytes.
func midRunSnapshot(t *testing.T) (*Simulation, []byte) {
	t.Helper()
	sm := Build(config.MustParse(goldenCases()[4].doc))
	sm.Sim.RunUntil(pinnedTick)
	data, err := sm.Snapshot(pinnedTick)
	if err != nil {
		t.Fatal(err)
	}
	return sm, data
}

// restoreFails requires Restore to refuse data with an error containing
// want, and not by recovering a panic.
func restoreFails(t *testing.T, data []byte, want string) {
	t.Helper()
	_, _, err := Restore(data, 0)
	if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "restore failed") {
		t.Fatalf("restore err = %v, want an error containing %q", err, want)
	}
}

// definition returns the bytes a walk codes at m's first reference, up to
// the packet index: the reference kind, then m's shape and fields.
func definition(m *types.Message) []byte {
	p := m.Packet(0)
	b := types.Bounds{Terminals: 1, Apps: 1} // saving checks no bound
	ref := snaptest.Save(func(c *snapshot.Codec) { types.NewMessageTable(nil, b).Packet(c, &p) })
	return ref[:len(ref)-1] // packet index 0 is one byte
}

// splice returns data with old, which must occur in it exactly once,
// replaced by new.
func splice(t *testing.T, data, old, new []byte) []byte {
	t.Helper()
	if n := bytes.Count(data, old); n != 1 {
		t.Fatalf("bytes to replace occur %d times in the snapshot", n)
	}
	return bytes.Replace(data, old, new, 1)
}

// TestRestoreRejectsMessageCorruption: a message is defined at its first
// reference, so the forms a corrupt stream can take are a reference ahead
// of the definition, a second definition, and a definition of a shape no
// message has. Each must fail Restore with an error.
func TestRestoreRejectsMessageCorruption(t *testing.T) {
	sm, data := midRunSnapshot(t)
	// The first two messages the walk defines among those with a flit on a
	// channel.
	var msgs []*types.Message
	seen := map[*types.Message]bool{}
	for _, a := range arrivals(sm) {
		if f := peek(a.Addr().Interface(), "f"); !f.IsNil() {
			if m := f.Interface().(*types.Flit).Pkt.Msg; !seen[m] {
				seen[m] = true
				msgs = append(msgs, m)
			}
		}
	}
	sort.Slice(msgs, func(i, j int) bool {
		return bytes.Index(data, definition(msgs[i])) < bytes.Index(data, definition(msgs[j]))
	})
	if len(msgs) < 2 {
		t.Fatalf("%d messages in flight at tick %d, want two", len(msgs), pinnedTick)
	}
	first, second := msgs[0], msgs[1]
	def1, def2 := definition(first), definition(second)

	// The first definition's kind, turned into a short reference.
	early := append([]byte{2}, def1[1:]...)
	restoreFails(t, splice(t, data, def1, early), fmt.Sprintf("reference to message %d before its definition", first.ID))

	// The second definition replaced by the first's.
	restoreFails(t, splice(t, data, def2, def1), fmt.Sprintf("message %d defined twice", first.ID))

	// The second definition under the first's ID.
	id := second.ID
	second.ID = first.ID
	twin := definition(second)
	second.ID = id
	restoreFails(t, splice(t, data, def2, twin), fmt.Sprintf("message %d defined twice", first.ID))

	// The first definition with no flits: after the kind and the ID comes
	// the flit count.
	_, n := binary.Uvarint(def1[1:])
	_, k := binary.Varint(def1[1+n:])
	empty := append(append(append([]byte(nil), def1[:1+n]...), 0), def1[1+n+k:]...)
	restoreFails(t, splice(t, data, def1, empty), "invalid shape")
}

// editEvents decodes the event section of a mid-run snapshot, lets edit
// change its records, and returns the snapshot with the section re-encoded.
func editEvents(t *testing.T, edit func(recs []sim.EventRecord)) []byte {
	t.Helper()
	_, data := midRunSnapshot(t)
	at := bytes.LastIndex(data, []byte("\x03"+secEvents)) + 1 + len(secEvents)
	d := snapshot.NewLoader(data[at:])
	recs := make([]sim.EventRecord, d.Len(0))
	for i := range recs {
		recs[i].State(d)
	}
	if err := d.Done(); err != nil || len(recs) < 2 {
		t.Fatalf("decoding the event section: %d records, %v", len(recs), err)
	}
	edit(recs)
	evq := snaptest.Save(func(c *snapshot.Codec) {
		c.Len(len(recs))
		for i := range recs {
			recs[i].State(c)
		}
	})
	return append(data[:at:at], evq...)
}

// TestRestoreRejectsUncodedEventOwner: an event record's owner key must name
// a component the walk coded; any other key has no handler to bind to.
func TestRestoreRejectsUncodedEventOwner(t *testing.T) {
	const stranger = 1 << 30 // beyond every key the build hands out
	data := editEvents(t, func(recs []sim.EventRecord) { recs[len(recs)-1].Owner = stranger })
	restoreFails(t, data, fmt.Sprintf("owned by unknown component key %d", stranger))
}

// TestRestoreRejectsEventsOutOfOrder: a snapshot stores its event records in
// queue order, and the queue relies on it, so two records swapped make
// Restore return an error, not re-sort them and not panic.
func TestRestoreRejectsEventsOutOfOrder(t *testing.T) {
	data := editEvents(t, func(recs []sim.EventRecord) { recs[0], recs[1] = recs[1], recs[0] })
	restoreFails(t, data, "does not sort after the previous one")
}

// TestSnapshotRejectsUncodedEventOwner: an event for a handler no State
// method codes could not be re-bound at restore, so Snapshot refuses to
// write it rather than write a snapshot that cannot be restored.
func TestSnapshotRejectsUncodedEventOwner(t *testing.T) {
	sm, _ := midRunSnapshot(t)
	const due = 1 << 40
	sm.Sim.Schedule(sim.HandlerFunc(func(*sim.Event) {}), sim.Time{Tick: due}, 0, nil)
	recs, err := sm.Sim.ExportEvents()
	if err != nil {
		t.Fatal(err)
	}
	var key uint32
	for _, r := range recs {
		if r.Tick == due {
			key = r.Owner
		}
	}
	want := fmt.Sprintf("owned by component key %d, which no State method codes", key)
	if _, err := sm.Snapshot(pinnedTick); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("snapshot err = %v, want %q", err, want)
	}
}

func TestRunCheckpointedErrors(t *testing.T) {
	build := func() *Simulation { return Build(config.MustParse(goldenCases()[4].doc)) }

	if _, err := build().RunCheckpointed(0, func(sim.Tick, []byte) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "interval") {
		t.Fatalf("zero interval: err = %v", err)
	}

	// A sink failure aborts the run.
	boom := fmt.Errorf("sink failed")
	if _, err := build().RunCheckpointed(checkpointEvery, func(sim.Tick, []byte) error { return boom }); err != boom {
		t.Fatalf("err = %v, want the sink's error", err)
	}
}
