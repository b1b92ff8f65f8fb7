// Package apps implements the supplied application models: Blast (steady
// state traffic at a constant injection rate) and Pulse (a bounded burst
// used as a transient disturbance). The canonical multi-application
// experiment pairs them to study the transient response of adaptive routing.
package apps

import (
	"fmt"
	"math/rand/v2"

	"supersim/internal/config"
	"supersim/internal/network"
	"supersim/internal/sim"
	"supersim/internal/stats"
	"supersim/internal/traffic"
	"supersim/internal/types"
	"supersim/internal/workload"
)

const (
	evInit = iota
	evInject
	evSampleDone
)

func init() {
	workload.Registry.Register("blast", func(s *sim.Simulator, cfg *config.Settings, w *workload.Workload, appID int, net network.Network) workload.Application {
		return NewBlast(s, cfg, w, appID, net)
	})
}

// appPhase is an application's own view of its lifecycle.
type appPhase int

const (
	phWarming appPhase = iota
	phGenerating
	phFinishing
	phDraining
)

// Blast injects fixed-size messages at a constant average rate (Poisson
// arrivals) from every terminal, following the configured traffic pattern.
// It warms the network for warmup_duration ticks, samples for
// sample_duration ticks, keeps injecting unsampled traffic until the
// workload kills it, and reports Done once every sampled message has exited
// the network.
//
// Settings: injection_rate (flits/cycle/terminal), message_size,
// max_packet_size, warmup_duration, sample_duration, source_queue_limit,
// traffic {type, ...}.
type Blast struct {
	sim.ComponentBase
	w     *workload.Workload
	appID int
	net   network.Network
	rng   *rand.Rand

	rate      float64
	msgSize   int
	maxPkt    int
	warmup    sim.Tick
	sampleDur sim.Tick
	queueCap  int
	pattern   traffic.Pattern
	meanGap   float64 // ticks between messages per terminal

	phase       appPhase
	outstanding int // sampled messages still in flight
	rec         *stats.Recorder
	pktRec      *stats.Recorder // per-packet samples of sampled messages
	// perPacket is set when a message can span several packets
	// (max_packet_size < message_size). Otherwise pktRec stays empty: there
	// is one packet per message row, and the packet view is printed only
	// where packets outnumber messages.
	perPacket bool
	skipped   uint64 // injections suppressed by the source queue cap
	generated uint64

	// next is the continuous-time Poisson arrival clock per terminal; the
	// discrete injection fires at ceil(next). Keeping the fractional part
	// preserves the configured average rate exactly.
	next []float64
	// line holds each terminal's next injection, entry t for terminal t,
	// and the warm-up timer, entry warmTimer (the terminal count). The
	// timer rides the line, added right after the first injections, so
	// that at its tick it runs after those and before every injection
	// scheduled later, as an event of its own did.
	line      injectLine
	warmTimer int
}

// NewBlast builds a Blast application.
func NewBlast(s *sim.Simulator, cfg *config.Settings, w *workload.Workload, appID int, net network.Network) *Blast {
	b := &Blast{
		ComponentBase: sim.NewComponentBase(s, cfg.StringOr("name", "blast")),
		w:             w,
		appID:         appID,
		net:           net,
		// Derived per-application stream keyed by the (unique) app index:
		// two applications of the same type must not share draws, and the
		// stream must be independent of other components' draw interleaving
		// so adding or reordering another component's draws cannot change it.
		rng:       s.DeriveRand(fmt.Sprintf("app%d/%s", appID, cfg.StringOr("name", "blast"))),
		rate:      cfg.Float("injection_rate"),
		msgSize:   int(cfg.UIntOr("message_size", 1)),
		warmup:    sim.Tick(cfg.UInt("warmup_duration")),
		sampleDur: sim.Tick(cfg.UInt("sample_duration")),
		queueCap:  int(cfg.UIntOr("source_queue_limit", 32)),
		rec:       stats.NewRecorder(),
		pktRec:    stats.NewRecorder(),
	}
	b.maxPkt = int(cfg.UIntOr("max_packet_size", uint64(b.msgSize)))
	if b.rate <= 0 || b.rate > 1 {
		b.Panicf("injection_rate must be in (0, 1], got %v", b.rate)
	}
	if b.msgSize < 1 || b.maxPkt < 1 {
		b.Panicf("message_size and max_packet_size must be positive")
	}
	b.perPacket = b.maxPkt < b.msgSize
	b.pattern = traffic.New(cfg.Sub("traffic"), net.NumTerminals())
	b.meanGap = float64(b.msgSize) / b.rate * float64(net.ChannelPeriod())
	b.next = make([]float64, net.NumTerminals())
	b.warmTimer = net.NumTerminals()
	b.line = newInjectLine(b.warmTimer + 1)
	s.Schedule(b, sim.TimeZero, evInit, nil)
	return b
}

// Stats returns the recorder holding the sampled messages.
func (b *Blast) Stats() *stats.Recorder { return b.rec }

// PacketStats returns the recorder holding the individual packets of the
// sampled messages — packet latency distributions differ from message
// latency distributions once messages span multiple packets. It is empty
// when max_packet_size >= message_size: every message is then one packet.
func (b *Blast) PacketStats() *stats.Recorder { return b.pktRec }

// Skipped returns injections suppressed because the source queue hit its cap
// — a direct saturation indicator.
func (b *Blast) Skipped() uint64 { return b.skipped }

// Generated returns the number of messages created.
func (b *Blast) Generated() uint64 { return b.generated }

// SampleWindow returns the [start, stop) ticks of the sampling window.
func (b *Blast) SampleWindow() (sim.Tick, sim.Tick) {
	return b.w.PhaseTimes[workload.Generating], b.w.PhaseTimes[workload.Finishing]
}

// ProcessEvent drives the application's timers and injectors.
func (b *Blast) ProcessEvent(ev *sim.Event) {
	switch ev.Type {
	case evInit:
		for t := 0; t < b.net.NumTerminals(); t++ {
			b.scheduleNext(t)
		}
		if b.warmup == 0 {
			b.w.Ready(b.appID)
		} else {
			b.line.add(b.Sim(), b, b.warmup, b.warmTimer)
		}
	case evSampleDone:
		b.w.Complete(b.appID)
	case evInject:
		due := b.line.take(ev.Time.Tick)
		for _, term := range due {
			if term == b.warmTimer {
				b.w.Ready(b.appID)
			} else {
				b.inject(term)
			}
		}
	default:
		b.Panicf("unknown event type %d", ev.Type)
	}
}

// Start begins the sampling window.
func (b *Blast) Start() {
	b.phase = phGenerating
	b.Sim().Schedule(b, b.Sim().Now().Plus(b.sampleDur).NextEps(), evSampleDone, nil)
}

// Stop ends the sampling window; traffic continues unsampled.
func (b *Blast) Stop() {
	b.phase = phFinishing
	b.maybeDone()
}

// Kill stops all traffic generation.
func (b *Blast) Kill() {
	b.phase = phDraining
}

func (b *Blast) maybeDone() {
	if b.phase == phFinishing && b.outstanding == 0 {
		b.phase = phDraining // guard against double Done before Kill arrives
		b.w.Done(b.appID)
	}
}

func (b *Blast) scheduleNext(term int) {
	b.next[term] += b.rng.ExpFloat64() * b.meanGap
	tick := sim.Tick(b.next[term]) + 1 // ceil to the next whole tick
	now := b.Sim().Now().Tick
	if tick <= now {
		tick = now + 1
	}
	b.line.add(b.Sim(), b, tick, term)
}

func (b *Blast) inject(term int) {
	if b.phase == phDraining {
		return
	}
	ifc := b.net.Interface(term)
	if ifc.QueueDepth() >= b.queueCap {
		b.skipped++
		b.scheduleNext(term)
		return
	}
	dst := b.pattern.Dest(b.rng, term)
	m := b.w.NewMessage(b.appID, term, dst, b.msgSize, b.maxPkt)
	m.CreateTime = b.Sim().Now().Tick
	if b.phase == phGenerating {
		m.Sampled = true
		b.outstanding++
	}
	b.generated++
	ifc.SendMessage(m)
	b.scheduleNext(term)
}

// DeliverMessage records sampled deliveries and reports Done when the last
// sampled message drains during the finishing phase.
func (b *Blast) DeliverMessage(m *types.Message) {
	if !m.Sampled {
		return
	}
	nonMin := false
	for i := 0; i < m.NumPackets() && !nonMin; i++ {
		nonMin = m.Packet(i).NonMinimal
	}
	b.rec.Record(stats.Sample{
		Start:      m.CreateTime,
		End:        m.ReceiveTime,
		Flits:      m.TotalFlits(),
		Hops:       int(m.Packet(0).HopCount),
		NonMinimal: nonMin,
		App:        int(m.App),
		Src:        int(m.Src),
		Dst:        m.Dst(),
	})
	for i := 0; b.perPacket && i < m.NumPackets(); i++ {
		p := m.Packet(i)
		t := p.Times() // a multi-packet message keeps every packet's
		b.pktRec.Record(stats.Sample{
			Start:      t.Inject,
			End:        t.Receive,
			Flits:      p.Size(),
			Hops:       int(p.HopCount),
			NonMinimal: p.NonMinimal,
			App:        int(m.App),
			Src:        int(m.Src),
			Dst:        m.Dst(),
		})
	}
	b.outstanding--
	if b.outstanding < 0 {
		b.Panicf("sampled message count went negative")
	}
	b.maybeDone()
}
