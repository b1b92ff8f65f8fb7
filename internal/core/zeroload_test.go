package core

import (
	"testing"

	"supersim/internal/config"
	"supersim/internal/network"
	"supersim/internal/sim"
	"supersim/internal/types"
)

// The zero-load latency oracle: with one message in the network nothing
// contends, so its latency is arithmetic on the configuration alone. A
// packet of F flits that crosses H routers pays the injection latency at
// both ends, H router pipelines, H-1 router-to-router channels and F-1
// channel periods of serialization behind its head:
//
//	latency = 2*injection.latency + H*pipe + (H-1)*channel.latency + (F-1)*channel.period
//
// pipe is the architecture's router latency from arrival at an input
// buffer to entry into the output channel, for a flit that arrives on a
// clock edge:
//   - input_queued: routing_latency core cycles, then crossbar_latency;
//   - input_output_queued: the same, then the wait for the next channel edge
//     to drain the output queue;
//   - output_queued: queue_latency, then the wait for the next channel edge.
//
// The test checks that equality exactly, for every modelCases row and every
// (source, destination) pair, one message at a time. It is the check that
// a change to how events are batched still delivers every flit on time:
// a goldens diff says only that something moved, this says what is right.
func TestZeroLoadLatency(t *testing.T) {
	const flits = 4 // one packet
	for _, tc := range modelCases(eqBlast) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.Sub("network")
			pipe, period := zeroLoadPipe(t, cfg)
			inj := sim.Tick(cfg.UIntOr("injection.latency", 1))
			ch := sim.Tick(cfg.UIntOr("channel.latency", 1))

			s := sim.NewSimulator(7)
			net := network.New(s, cfg)
			sink := &lastDelivery{}
			for i := 0; i < net.NumTerminals(); i++ {
				net.Interface(i).SetMessageSink(sink)
			}
			var id uint64
			for src := 0; src < net.NumTerminals(); src++ {
				for dst := 0; dst < net.NumTerminals(); dst++ {
					if src == dst {
						continue
					}
					id++
					m := types.NewMessage(id, 0, src, dst, flits, flits)
					// Create the message on the next channel edge, after
					// the previous one has left the network.
					at := (s.Now().Tick/period + 1) * period
					s.Schedule(sim.HandlerFunc(func(*sim.Event) {
						m.CreateTime = s.Now().Tick
						net.Interface(src).SendMessage(m)
					}), sim.Time{Tick: at}, 0, nil)
					s.Run()
					if sink.m != m {
						t.Fatalf("%d->%d: message not delivered", src, dst)
					}
					hops := sim.Tick(m.Packet(0).HopCount)
					if hops == 0 {
						t.Fatalf("%d->%d: delivered without crossing a router", src, dst)
					}
					want := 2*inj + hops*pipe + (hops-1)*ch + (flits-1)*period
					if got := m.ReceiveTime - m.CreateTime; got != want {
						t.Fatalf("%d->%d over %d routers: latency %d, closed form %d (pipe %d)",
							src, dst, hops, got, want, pipe)
					}
				}
			}
		})
	}
}

// zeroLoadPipe returns the router pipeline latency of the network block's
// architecture and the channel period. The closed form assumes every flit
// reaches a router on a clock edge, so the latencies it adds up must be
// multiples of the channel period; the test refuses a configuration that
// breaks that instead of computing something else.
func zeroLoadPipe(t *testing.T, cfg *config.Settings) (pipe, period sim.Tick) {
	t.Helper()
	period = sim.Tick(cfg.UIntOr("channel.period", 1))
	core := period / sim.Tick(cfg.UIntOr("router.speedup", 1))
	ceil := func(x sim.Tick) sim.Tick { return (x + period - 1) / period * period }
	for _, key := range []string{"channel.latency", "injection.latency", "router.crossbar_latency"} {
		if v := sim.Tick(cfg.UIntOr(key, 1)); v%period != 0 {
			t.Fatalf("%s %d is not a multiple of the channel period %d", key, v, period)
		}
	}
	switch arch := cfg.String("router.architecture"); arch {
	case "input_queued":
		pipe = sim.Tick(cfg.UIntOr("router.routing_latency", 1))*core + sim.Tick(cfg.UIntOr("router.crossbar_latency", 1))
	case "input_output_queued":
		pipe = ceil(sim.Tick(cfg.UIntOr("router.routing_latency", 1))*core + sim.Tick(cfg.UIntOr("router.crossbar_latency", 1)))
	case "output_queued":
		pipe = ceil(sim.Tick(cfg.UIntOr("router.queue_latency", 1)))
	default:
		t.Fatalf("no zero-load closed form for router architecture %q", arch)
	}
	return pipe, period
}

// lastDelivery is a message sink that remembers the last message delivered.
type lastDelivery struct{ m *types.Message }

func (d *lastDelivery) DeliverMessage(m *types.Message) { d.m = m }
