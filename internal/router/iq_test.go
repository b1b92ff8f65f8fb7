package router

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"supersim/internal/channel"
	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/types"
)

// flitSink collects flits leaving the router under test and, like a real
// downstream device, returns one credit per flit.
type flitSink struct {
	s       *sim.Simulator
	flits   []*types.Flit
	vcs     []int
	times   []sim.Tick
	creditC *channel.CreditChannel
	line    *channel.Line
}

func (f *flitSink) ReceiveCredit(int, types.Credit) {}

func (f *flitSink) Arrivals() *channel.Line {
	if f.line == nil {
		f.line = channel.NewLine(f.s, "out", 1)
		f.line.Bind(f)
	}
	return f.line
}

func (f *flitSink) ReceiveFlit(port, vc int, fl *types.Flit) {
	f.flits = append(f.flits, fl)
	f.vcs = append(f.vcs, vc)
	f.times = append(f.times, f.s.Now().Tick)
	if f.creditC != nil {
		f.creditC.Inject(types.Credit{VC: vc})
	}
}

// creditSink collects upstream credit returns.
type creditSink struct {
	s       *sim.Simulator
	credits []types.Credit
	line    *channel.Line
}

func (c *creditSink) ReceiveFlit(int, int, *types.Flit) {}

func (c *creditSink) Arrivals() *channel.Line {
	if c.line == nil {
		c.line = channel.NewLine(c.s, "upstream", 1)
		c.line.Bind(c)
	}
	return c.line
}

func (c *creditSink) ReceiveCredit(port int, cr types.Credit) {
	c.credits = append(c.credits, cr)
}

// passCtor routes every packet to port 1, offering all VCs.
func passCtor(vcs int) routing.Ctor {
	all := make([]int, vcs)
	for i := range all {
		all[i] = i
	}
	return func(routerID, inputPort int, sensor congestion.Sensor, rng *rand.Rand) routing.Algorithm {
		return routing.AlgorithmFunc(func(now sim.Tick, pkt *types.Packet, inPort, inVC int) routing.Response {
			return routing.Response{Port: 1, VCs: all}
		})
	}
}

// buildLoneRouter wires a 2-port router: flits pushed into port 0 route to
// port 1, whose channel feeds a collector; upstream credits for port 0 are
// collected too. Returns the simulator, router, output sink and credit sink.
func buildLoneRouter(t *testing.T, cfgDoc string, vcs, downCredits int) (*sim.Simulator, Router, *flitSink, *creditSink) {
	t.Helper()
	s := sim.NewSimulator(1)
	r := New(s, "r0", config.MustParse(cfgDoc), Params{
		ID: 0, Radix: 2, RoutingCtor: passCtor(vcs), ChannelPeriod: 1,
	})
	out := &flitSink{s: s}
	ch := channel.New(s, "out", 1, 1)
	ch.SetSink(out, 0)
	r.ConnectOutput(1, ch)
	r.SetDownstreamCredits(1, downCredits)
	back := channel.NewCredit(s, "back", 1)
	back.SetSink(r, 1)
	out.creditC = back
	crs := &creditSink{s: s}
	cc := channel.NewCredit(s, "cr", 1)
	cc.SetSink(crs, 0)
	r.ConnectCreditOut(0, cc)
	return s, r, out, crs
}

const iqDoc = `{
  "architecture": "input_queued",
  "num_vcs": 2,
  "input_buffer_depth": 8,
  "routing_latency": 1,
  "crossbar_latency": 3
}`

func pushPacket(s *sim.Simulator, r Router, size, vc int, atTick sim.Tick) *types.Message {
	m := types.NewMessage(1, 0, 5, 9, size, size)
	for i := 0; i < m.Packet(0).Size(); i++ {
		f := m.Packet(0).Flit(i)
		tick := atTick + sim.Tick(i)
		s.Schedule(sim.HandlerFunc(func(*sim.Event) { r.ReceiveFlit(0, vc, f) }),
			sim.Time{Tick: tick}, 0, nil)
	}
	return m
}

func TestIQForwardsPacketInOrder(t *testing.T) {
	s, r, out, crs := buildLoneRouter(t, iqDoc, 2, 8)
	pushPacket(s, r, 3, 0, 10)
	s.Run()
	if len(out.flits) != 3 {
		t.Fatalf("forwarded %d flits", len(out.flits))
	}
	for i, f := range out.flits {
		if int(f.ID) != i {
			t.Fatalf("flit order %v", out.flits)
		}
	}
	// One upstream credit per forwarded flit, on the arrival VC.
	if len(crs.credits) != 3 {
		t.Fatalf("returned %d credits", len(crs.credits))
	}
	for _, c := range crs.credits {
		if c.VC != 0 {
			t.Fatalf("credit VC %d", c.VC)
		}
	}
	// Head flit: arrive t=10, route done t=11, VC + switch allocation in the
	// same cycle (aggressive single-cycle pipeline), crossbar 3 ticks =>
	// channel inject t=14, channel latency 1 => delivery t=15.
	if out.times[0] != 15 {
		t.Fatalf("head delivered at %d, want 15", out.times[0])
	}
	// Hop count incremented once per router traversal.
	if out.flits[0].Pkt.HopCount != 1 {
		t.Fatalf("hop count %d", out.flits[0].Pkt.HopCount)
	}
	r.VerifyIdle()
}

// TestRouteCompletionsAtTheirOwnTick: the front end holds one evRouteDone
// for all routes in flight, and each completion still happens exactly
// routing_latency cycles after its head arrived. Heads arriving one tick
// apart keep two routes in flight at once, due a tick apart.
func TestRouteCompletionsAtTheirOwnTick(t *testing.T) {
	for _, arch := range []string{"input_queued", "input_output_queued"} {
		t.Run(arch, func(t *testing.T) {
			doc := strings.Replace(strings.Replace(iqDoc, "input_queued", arch, 1),
				`"routing_latency": 1`, `"routing_latency": 3`, 1)
			s := sim.NewSimulator(1)
			var routed []sim.Tick
			all := []int{0, 1}
			ctor := func(routerID, inputPort int, sensor congestion.Sensor, rng *rand.Rand) routing.Algorithm {
				return routing.AlgorithmFunc(func(now sim.Tick, pkt *types.Packet, inPort, inVC int) routing.Response {
					routed = append(routed, now)
					return routing.Response{Port: 1, VCs: all}
				})
			}
			r := New(s, "r0", config.MustParse(doc), Params{ID: 0, Radix: 2, RoutingCtor: ctor, ChannelPeriod: 1})
			out := &flitSink{s: s}
			ch := channel.New(s, "out", 1, 1)
			ch.SetSink(out, 0)
			r.ConnectOutput(1, ch)
			r.SetDownstreamCredits(1, 8)
			cc := channel.NewCredit(s, "cr", 1)
			cc.SetSink(&creditSink{s: s}, 0)
			r.ConnectCreditOut(0, cc)
			pushPacket(s, r, 1, 0, 10)
			pushPacket(s, r, 1, 1, 11)
			s.Run()
			if len(routed) != 2 || routed[0] != 13 || routed[1] != 14 {
				t.Fatalf("routes completed at %v, want [13 14]", routed)
			}
			if len(out.flits) != 2 {
				t.Fatalf("forwarded %d flits", len(out.flits))
			}
		})
	}
}

// archDoc is iqDoc for any registered architecture; each ignores the
// settings it does not have.
func archDoc(arch string) string {
	return strings.Replace(iqDoc, "input_queued", arch, 1)
}

// forEachArch runs a subtest per registered router architecture: the
// framework's error detection is shared code and must hold on all of them.
func forEachArch(t *testing.T, fn func(t *testing.T, doc string)) {
	for _, arch := range Registry.Names() {
		t.Run(arch, func(t *testing.T) { fn(t, archDoc(arch)) })
	}
}

func TestStallsWithoutDownstreamCredits(t *testing.T) {
	forEachArch(t, func(t *testing.T, doc string) {
		// Disable the sink's automatic credit return to starve the router.
		s, r, out, _ := buildLoneRouter(t, doc, 2, 2)
		out.creditC = nil
		pushPacket(s, r, 4, 0, 10)
		s.Run()
		if len(out.flits) != 2 {
			t.Fatalf("forwarded %d flits with 2 credits", len(out.flits))
		}
		// Returning credits resumes the stream.
		back := channel.NewCredit(s, "late", 1)
		back.SetSink(r, 1)
		out.creditC = back
		s.Schedule(sim.HandlerFunc(func(*sim.Event) {
			r.ReceiveCredit(1, types.Credit{VC: out.vcs[0]})
			r.ReceiveCredit(1, types.Credit{VC: out.vcs[0]})
		}), sim.Time{Tick: s.Now().Tick + 1}, 0, nil)
		s.Run()
		if len(out.flits) != 4 {
			t.Fatalf("forwarded %d flits after credit return", len(out.flits))
		}
		r.VerifyIdle()
	})
}

func TestInputBufferOverrunPanics(t *testing.T) {
	forEachArch(t, func(t *testing.T, doc string) {
		s, r, _, _ := buildLoneRouter(t, doc, 2, 0x7fffffff)
		// 9 flits into an 8-deep buffer in one tick: the 9th must panic.
		m := types.NewMessage(1, 0, 5, 9, 9, 9)
		panicked := false
		s.Schedule(sim.HandlerFunc(func(*sim.Event) {
			defer func() { panicked = recover() != nil }()
			for fi := 0; fi < m.Packet(0).Size(); fi++ {
				r.ReceiveFlit(0, 0, m.Packet(0).Flit(fi))
			}
		}), sim.Time{Tick: 1}, 0, nil)
		s.Run()
		if !panicked {
			t.Fatal("expected buffer overrun panic")
		}
	})
}

func TestRejectsUnregisteredVC(t *testing.T) {
	forEachArch(t, func(t *testing.T, doc string) {
		s, r, _, _ := buildLoneRouter(t, doc, 2, 8)
		m := types.NewMessage(1, 0, 5, 9, 1, 1)
		var got any
		s.Schedule(sim.HandlerFunc(func(*sim.Event) {
			defer func() { got = recover() }()
			r.ReceiveFlit(0, 7, m.Packet(0).Flit(0))
		}), sim.Time{Tick: 1}, 0, nil)
		s.Run()
		if got == nil {
			t.Fatal("expected unregistered VC panic")
		}
		if msg := fmt.Sprint(got); !strings.Contains(msg, "unregistered VC 7 ") {
			t.Fatalf("panic %q does not name VC 7", msg)
		}
	})
}

func TestRoutingToUnusedPortRejected(t *testing.T) {
	forEachArch(t, func(t *testing.T, doc string) {
		// Route to port 1 but leave it unconnected: validateResponse must panic.
		s := sim.NewSimulator(1)
		r := New(s, "r0", config.MustParse(doc), Params{
			ID: 0, Radix: 2, RoutingCtor: passCtor(2), ChannelPeriod: 1,
		})
		crs := &creditSink{s: s}
		cc := channel.NewCredit(s, "cr", 1)
		cc.SetSink(crs, 0)
		r.ConnectCreditOut(0, cc)
		m := types.NewMessage(1, 0, 5, 9, 1, 1)
		s.Schedule(sim.HandlerFunc(func(*sim.Event) {
			r.ReceiveFlit(0, 0, m.Packet(0).Flit(0))
		}), sim.Time{Tick: 1}, 0, nil)
		panicked := false
		func() {
			defer func() { panicked = recover() != nil }()
			s.Run()
		}()
		if !panicked {
			t.Fatal("expected unused-port rejection")
		}
	})
}

// TestPacketBufferOversizePacketPanics: under packet_buffer flow control a
// head only wins the switch when its whole packet fits the pool it is sent
// into. A packet larger than the pool can never win; the router must say so
// when it routes the head instead of wedging silently.
func TestPacketBufferOversizePacketPanics(t *testing.T) {
	pb := func(arch, extra string) string {
		return strings.Replace(archDoc(arch), "{", `{"flow_control": "packet_buffer",`+extra, 1)
	}
	cases := []struct {
		name        string
		doc         string
		downCredits int
		want        string // substring of the panic, "" = the packet must get through
	}{
		{"iq packet > downstream credits", pb("input_queued", ""), 3, "input_buffer_depth"},
		{"iq packet = downstream credits", pb("input_queued", ""), 4, ""},
		{"ioq packet > output_queue_depth", pb("input_output_queued", `"output_queue_depth": 3,`), 8, "output_queue_depth"},
		{"ioq packet = output_queue_depth", pb("input_output_queued", `"output_queue_depth": 4,`), 8, ""},
		{"ioq unbounded output queue", pb("input_output_queued", `"output_queue_depth": 0,`), 1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, r, out, _ := buildLoneRouter(t, tc.doc, 2, tc.downCredits)
			pushPacket(s, r, 4, 0, 10)
			var got any
			func() {
				defer func() { got = recover() }()
				s.Run()
			}()
			if tc.want == "" {
				if got != nil || len(out.flits) != 4 {
					t.Fatalf("panic %v, forwarded %d of 4 flits; want the packet through", got, len(out.flits))
				}
				r.VerifyIdle()
				return
			}
			msg, _ := got.(string)
			for _, part := range []string{"packet_buffer", "4 flits", "more than 3", tc.want} {
				if !strings.Contains(msg, part) {
					t.Fatalf("panic %q does not mention %q", msg, part)
				}
			}
		})
	}
}

func TestIOQForwardsThroughOutputQueue(t *testing.T) {
	doc := `{
	  "architecture": "input_output_queued",
	  "num_vcs": 2,
	  "speedup": 1,
	  "input_buffer_depth": 8,
	  "output_queue_depth": 4,
	  "crossbar_latency": 2
	}`
	s, r, out, _ := buildLoneRouter(t, doc, 2, 8)
	pushPacket(s, r, 3, 1, 10)
	s.Run()
	if len(out.flits) != 3 {
		t.Fatalf("forwarded %d flits", len(out.flits))
	}
	r.VerifyIdle()
}

func TestOQForwardsAndSensesOccupancy(t *testing.T) {
	doc := `{
	  "architecture": "output_queued",
	  "num_vcs": 1,
	  "input_buffer_depth": 8,
	  "queue_latency": 5,
	  "output_queue_depth": 16,
	  "congestion_sensor": {"granularity": "port", "source": "output"}
	}`
	s, r, out, _ := buildLoneRouter(t, doc, 1, 0x100000)
	pushPacket(s, r, 4, 0, 10)
	s.Run()
	if len(out.flits) != 4 {
		t.Fatalf("forwarded %d flits", len(out.flits))
	}
	r.VerifyIdle()
	if r.Sensor().Congestion(s.Now().Tick, 1, 0) != 0 {
		t.Fatal("sensor should read zero when idle")
	}
}

func TestRouterAccessors(t *testing.T) {
	_, r, _, _ := buildLoneRouter(t, iqDoc, 2, 8)
	if r.ID() != 0 || r.Radix() != 2 || r.NumVCs() != 2 || r.InputBufferDepth() != 8 {
		t.Fatal("accessor values wrong")
	}
}

func TestRouterConfigValidation(t *testing.T) {
	s := sim.NewSimulator(1)
	mk := func(doc string, p Params) func() {
		return func() { New(s, "r", config.MustParse(doc), p) }
	}
	base := Params{ID: 0, Radix: 2, RoutingCtor: passCtor(1), ChannelPeriod: 2}
	cases := []func(){
		mk(`{"architecture": "nope"}`, base),
		mk(`{"architecture": "input_queued", "num_vcs": 0}`, base),
		mk(`{"architecture": "input_queued", "input_buffer_depth": 0}`, base),
		mk(`{"architecture": "input_queued", "speedup": 3}`, base), // does not divide period 2
		mk(`{"architecture": "input_queued", "routing_latency": 0}`, base),
		mk(`{"architecture": "input_queued", "crossbar_latency": 0}`, base),
		mk(`{"architecture": "output_queued", "queue_latency": 0}`, base),
		mk(`{"architecture": "input_queued"}`, Params{ID: 0, Radix: 0, RoutingCtor: passCtor(1), ChannelPeriod: 1}),
		mk(`{"architecture": "input_queued"}`, Params{ID: 0, Radix: 2, RoutingCtor: nil, ChannelPeriod: 1}),
		mk(`{"architecture": "input_queued"}`, Params{ID: 0, Radix: 2, RoutingCtor: passCtor(1), ChannelPeriod: 0}),
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
