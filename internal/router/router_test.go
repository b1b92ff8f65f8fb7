package router

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/snapshot/snaptest"
	"supersim/internal/types"
)

func flitOf(size, idx int) *types.Flit {
	m := types.NewMessage(1, 0, 0, 1, size, size)
	return m.Packet(0).Flit(idx)
}

func TestFlitQueueFIFO(t *testing.T) {
	var q flitQueue
	if q.peek() != nil || q.pop() != nil || q.len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
	var flits []*types.Flit
	for i := 0; i < 10; i++ {
		f := flitOf(1, 0)
		flits = append(flits, f)
		q.push(f)
	}
	if q.len() != 10 {
		t.Fatalf("len = %d", q.len())
	}
	for i := 0; i < 10; i++ {
		if q.peek() != flits[i] {
			t.Fatalf("peek %d wrong", i)
		}
		if q.pop() != flits[i] {
			t.Fatalf("pop %d wrong", i)
		}
	}
}

func TestFlitQueueWrapAndGrow(t *testing.T) {
	var q flitQueue
	// Interleave pushes and pops to force ring wraparound, then grow.
	prop := func(ops []bool) bool {
		var q flitQueue
		var model []*types.Flit
		for _, push := range ops {
			if push || len(model) == 0 {
				f := flitOf(1, 0)
				q.push(f)
				model = append(model, f)
			} else {
				got := q.pop()
				if got != model[0] {
					return false
				}
				model = model[1:]
			}
			if q.len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	_ = q
}

// TestFlitQueueRestoredRing restores a five-entry queue, which must come
// back on an eight-slot ring (at masks, so the length is a power of two),
// and runs it through a wrap.
func TestFlitQueueRestoredRing(t *testing.T) {
	var q flitQueue
	m := types.NewMessage(1, 0, 0, 1, 9, 9)
	for i := 0; i < 5; i++ {
		q.push(m.Packet(0).Flit(i))
	}
	bounds := types.Bounds{Terminals: 2, Apps: 1}
	data := snaptest.Save(func(c *snapshot.Codec) { q.state(c, types.NewMessageTable(nil, bounds)) })
	var got flitQueue
	if err := snaptest.Load(data, func(c *snapshot.Codec) { got.state(c, types.NewMessageTable(nil, bounds)) }); err != nil {
		t.Fatal(err)
	}
	if len(got.buf) != 8 {
		t.Fatalf("restored ring has %d slots, want 8", len(got.buf))
	}
	pkt := got.peek().Pkt
	var ids []int32
	for i := 0; i < 3; i++ {
		ids = append(ids, got.pop().ID)
	}
	for i := 5; i < 9; i++ {
		got.push(pkt.Flit(i))
	}
	for got.len() > 0 {
		ids = append(ids, got.pop().ID)
	}
	if want := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("flit order %v, want %v", ids, want)
	}
}

func TestDelayLineOrdering(t *testing.T) {
	var d delayLine[flight]
	if _, ok := d.q.Next(); ok {
		t.Fatal("empty delay line has a next")
	}
	f1, f2 := flitOf(1, 0), flitOf(1, 0)
	d.q.Push(10, flight{f1, 3, 1})
	d.q.Push(10, flight{f2, 4, 0})
	d.q.Push(15, flight{flitOf(1, 0), 5, 0})
	at, ok := d.q.Next()
	if !ok || at != 10 {
		t.Fatalf("next = %d, %v", at, ok)
	}
	if fl := d.q.Pop(); fl.f != f1 || fl.port != 3 || fl.vc != 1 {
		t.Fatal("pop order wrong")
	}
	if fl := d.q.Pop(); fl.f != f2 || fl.port != 4 || fl.vc != 0 {
		t.Fatal("same-tick FIFO wrong")
	}
	at, _ = d.q.Next()
	if at != 15 {
		t.Fatalf("next after pops = %d", at)
	}
}

func TestDelayLineMonotonePanics(t *testing.T) {
	var d delayLine[flight]
	d.q.Push(10, flight{flitOf(1, 0), 0, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.q.Push(9, flight{flitOf(1, 0), 0, 0})
}

func TestDelayLineCompaction(t *testing.T) {
	var d delayLine[flight]
	for i := 0; i < 1000; i++ {
		d.q.Push(sim.Tick(i), flight{flitOf(1, 0), 0, 0})
		if i%2 == 1 {
			d.q.Pop()
			d.q.Pop()
		}
	}
	for {
		if _, ok := d.q.Next(); !ok {
			break
		}
		d.q.Pop()
	}
	if runs, vals := d.q.Live(); d.q.Len() != 0 || len(runs) != 0 || len(vals) != 0 {
		t.Fatalf("drained line not empty: len=%d", d.q.Len())
	}
}

// schedClient is a tiny test model of an input VC contending for an output.
type schedClient struct {
	eligible bool
	age      sim.Tick
}

func grantOf(x *xbarSched, clients map[int]*schedClient) int {
	return x.grant(
		func(c int) bool { return clients[c].eligible },
		func(c int) sim.Tick { return clients[c].age },
	)
}

func TestXbarSchedRoundRobinRotation(t *testing.T) {
	x := newXbarSched(FlitBuffer, polRoundRobin, nil)
	clients := map[int]*schedClient{
		1: {eligible: true}, 5: {eligible: true}, 9: {eligible: true},
	}
	for _, c := range []int{1, 5, 9} {
		x.addContender(c)
	}
	var got []int
	for i := 0; i < 6; i++ {
		w := grantOf(x, clients)
		got = append(got, w)
		x.onSent(w, true, true) // single-flit packets
		x.addContender(w)       // re-enters with the next packet
	}
	want := []int{1, 5, 9, 1, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation %v, want %v", got, want)
		}
	}
}

func TestXbarSchedAgePolicy(t *testing.T) {
	x := newXbarSched(FlitBuffer, polAgeBased, nil)
	clients := map[int]*schedClient{
		0: {eligible: true, age: 30},
		1: {eligible: true, age: 10},
		2: {eligible: false, age: 1}, // oldest but ineligible
	}
	for c := range clients {
		x.addContender(c)
	}
	if w := grantOf(x, clients); w != 1 {
		t.Fatalf("grant = %d, want oldest eligible (1)", w)
	}
}

func TestXbarSchedRandomPolicy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	x := newXbarSched(FlitBuffer, polRandom, rng)
	clients := map[int]*schedClient{0: {eligible: true}, 1: {eligible: true}}
	x.addContender(0)
	x.addContender(1)
	seen := map[int]int{}
	for i := 0; i < 200; i++ {
		seen[grantOf(x, clients)]++
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("random policy skewed: %v", seen)
	}
}

func TestXbarSchedPacketBufferLocksThroughStall(t *testing.T) {
	// PB: once a packet wins, a stall (e.g. waiting for body flits) blocks
	// the output rather than letting another packet in.
	x := newXbarSched(PacketBuffer, polRoundRobin, nil)
	clients := map[int]*schedClient{0: {eligible: true}, 1: {eligible: true}}
	x.addContender(0)
	x.addContender(1)
	w := grantOf(x, clients)
	if w != 0 {
		t.Fatalf("first grant = %d", w)
	}
	x.onSent(0, true, false) // head of a multi-flit packet: locks
	clients[0].eligible = false
	if w := grantOf(x, clients); w != -1 {
		t.Fatalf("PB must stall locked output, granted %d", w)
	}
	clients[0].eligible = true
	if w := grantOf(x, clients); w != 0 {
		t.Fatal("lock holder must resume")
	}
	x.onSent(0, false, true) // tail: unlock and remove
	if w := grantOf(x, clients); w != 1 {
		t.Fatalf("after tail, other client should win, got %d", w)
	}
}

func TestXbarSchedWTAUnlocksOnStall(t *testing.T) {
	x := newXbarSched(WinnerTakeAll, polRoundRobin, nil)
	clients := map[int]*schedClient{0: {eligible: true}, 1: {eligible: true}}
	x.addContender(0)
	x.addContender(1)
	if w := grantOf(x, clients); w != 0 {
		t.Fatal("first grant")
	}
	x.onSent(0, true, false) // locks
	if w := grantOf(x, clients); w != 0 {
		t.Fatal("lock holder keeps output while eligible")
	}
	clients[0].eligible = false // credit stall
	if w := grantOf(x, clients); w != 1 {
		t.Fatalf("WTA must unlock on stall, granted %d", w)
	}
	x.onSent(1, true, false) // client 1 takes over and locks
	clients[0].eligible = true
	if w := grantOf(x, clients); w != 1 {
		t.Fatal("new lock holder must keep output")
	}
}

func TestXbarSchedFlitBufferInterleaves(t *testing.T) {
	// FB: no locking; two multi-flit packets alternate per cycle, each
	// taking 50% of the bandwidth.
	x := newXbarSched(FlitBuffer, polRoundRobin, nil)
	clients := map[int]*schedClient{0: {eligible: true}, 1: {eligible: true}}
	x.addContender(0)
	x.addContender(1)
	var got []int
	for i := 0; i < 6; i++ {
		w := grantOf(x, clients)
		got = append(got, w)
		x.onSent(w, i < 2, false) // heads first, then bodies
	}
	want := []int{0, 1, 0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FB interleave %v, want %v", got, want)
		}
	}
}

func TestXbarSchedRemoveUnknownPanics(t *testing.T) {
	x := newXbarSched(FlitBuffer, polRoundRobin, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.removeContender(7)
}

func TestParseFlowControlAndPolicies(t *testing.T) {
	if ParseFlowControl("flit_buffer") != FlitBuffer ||
		ParseFlowControl("packet_buffer") != PacketBuffer ||
		ParseFlowControl("winner_take_all") != WinnerTakeAll {
		t.Fatal("flow control parsing wrong")
	}
	mustPanic(t, func() { ParseFlowControl("bogus") })
	if parsePolicy("round_robin") != polRoundRobin ||
		parsePolicy("age_based") != polAgeBased ||
		parsePolicy("random") != polRandom {
		t.Fatal("policy parsing wrong")
	}
	mustPanic(t, func() { parsePolicy("bogus") })
	if parseVCPolicy(config.MustParse(`{}`)) != false ||
		parseVCPolicy(config.MustParse(`{"vc_policy": "age_based"}`)) != true {
		t.Fatal("vc policy parsing wrong")
	}
	mustPanic(t, func() { parseVCPolicy(config.MustParse(`{"vc_policy": "x"}`)) })
}

// allocStage is a bare front end for the allocateVCs tests: input VCs with
// no allocation, the given output VC holders, one scheduler per output port,
// and the listed clients pending.
func allocStage(clients int, holder [][]int, pending ...int) *inputStage {
	s := &inputStage{in: make([]inputVC, clients), holder: holder, vcPending: pending, vcOrder: make([]int, clients)}
	for i := range s.in {
		s.in[i].outPort, s.in[i].outVC = -1, -1
	}
	for range holder {
		s.sched = append(s.sched, newXbarSched(FlitBuffer, polRoundRobin, nil))
	}
	return s
}

func TestAllocateVCsGrantsFreeVCs(t *testing.T) {
	s := allocStage(4, [][]int{{-1, -1}}, 0, 1) // 1 port, 2 VCs
	// Clients 0 and 1 both want port 0; two VCs available -> both granted.
	for _, c := range []int{0, 1} {
		m := types.NewMessage(uint64(c), 0, 0, 1, 1, 1)
		s.in[c].q.push(m.Packet(0).Flit(0))
		s.in[c].resp.Port = 0
		s.in[c].resp.VCs = []int{0, 1}
	}
	if progress := s.allocateVCs(0); !progress || len(s.vcPending) != 0 {
		t.Fatalf("kept=%v progress=%v", s.vcPending, progress)
	}
	if s.in[0].outVC == s.in[1].outVC {
		t.Fatal("two clients granted the same output VC")
	}
	if s.holder[0][s.in[0].outVC] != 0 || s.holder[0][s.in[1].outVC] != 1 {
		t.Fatal("holder bookkeeping wrong")
	}
}

func TestAllocateVCsBlocksWhenFull(t *testing.T) {
	s := allocStage(2, [][]int{{5}}, 0) // VC held by client 5
	m := types.NewMessage(1, 0, 0, 1, 1, 1)
	s.in[0].q.push(m.Packet(0).Flit(0))
	s.in[0].resp.Port = 0
	s.in[0].resp.VCs = []int{0}
	if progress := s.allocateVCs(0); progress || len(s.vcPending) != 1 {
		t.Fatalf("kept=%v progress=%v, want blocked", s.vcPending, progress)
	}
}

func TestAllocateVCsAgeOrder(t *testing.T) {
	// One free VC, two waiting clients; the older packet must win
	// regardless of list order.
	s := allocStage(2, [][]int{{-1}}, 0, 1)
	s.vcAgeOrder = true
	for c := 0; c < 2; c++ {
		m := types.NewMessage(uint64(c), 0, 0, 1, 1, 1)
		m.CreateTime = sim.Tick(100 - c*50) // client 1 is older
		s.in[c].q.push(m.Packet(0).Flit(0))
		s.in[c].resp.Port = 0
		s.in[c].resp.VCs = []int{0}
	}
	s.allocateVCs(0)
	if s.holder[0][0] != 1 {
		t.Fatalf("holder = %d, want older client 1", s.holder[0][0])
	}
	if len(s.vcPending) != 1 || s.vcPending[0] != 0 {
		t.Fatalf("kept = %v", s.vcPending)
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
