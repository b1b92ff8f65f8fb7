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

func init() {
	workload.Registry.Register("pulse", func(s *sim.Simulator, cfg *config.Settings, w *workload.Workload, appID int, net network.Network) workload.Application {
		return NewPulse(s, cfg, w, appID, net)
	})
}

// Pulse generates a bounded burst: each terminal sends `count` messages at
// the configured rate, starting `delay` ticks after the workload's Start
// command. It remains idle through warming (sending Ready immediately),
// reports Complete once the burst has been created, and Done once the burst
// has drained. Paired with Blast it produces a temporary disturbance for
// transient analysis of adaptive routing.
//
// Settings: injection_rate, message_size, max_packet_size, count, delay,
// traffic {type, ...}.
type Pulse struct {
	sim.ComponentBase
	w     *workload.Workload
	appID int
	net   network.Network
	rng   *rand.Rand

	rate    float64
	msgSize int
	maxPkt  int
	count   int
	delay   sim.Tick
	pattern traffic.Pattern
	meanGap float64

	phase       appPhase
	remaining   []int // per terminal: messages still to create
	toCreate    int
	outstanding int
	rec         *stats.Recorder
	next        []float64 // continuous-time arrival clock per terminal
}

// NewPulse builds a Pulse application.
func NewPulse(s *sim.Simulator, cfg *config.Settings, w *workload.Workload, appID int, net network.Network) *Pulse {
	p := &Pulse{
		ComponentBase: sim.NewComponentBase(s, cfg.StringOr("name", "pulse")),
		w:             w,
		appID:         appID,
		net:           net,
		// See Blast: derived per-application stream.
		rng:     s.DeriveRand(fmt.Sprintf("app%d/%s", appID, cfg.StringOr("name", "pulse"))),
		rate:    cfg.Float("injection_rate"),
		msgSize: int(cfg.UIntOr("message_size", 1)),
		count:   int(cfg.UInt("count")),
		delay:   sim.Tick(cfg.UIntOr("delay", 0)),
		rec:     stats.NewRecorder(),
	}
	p.maxPkt = int(cfg.UIntOr("max_packet_size", uint64(p.msgSize)))
	if p.rate <= 0 || p.rate > 1 {
		p.Panicf("injection_rate must be in (0, 1], got %v", p.rate)
	}
	if p.msgSize < 1 || p.maxPkt < 1 || p.count < 1 {
		p.Panicf("message_size, max_packet_size and count must be positive")
	}
	p.pattern = traffic.New(cfg.Sub("traffic"), net.NumTerminals())
	p.meanGap = float64(p.msgSize) / p.rate * float64(net.ChannelPeriod())
	p.remaining = make([]int, net.NumTerminals())
	for i := range p.remaining {
		p.remaining[i] = p.count
	}
	p.next = make([]float64, net.NumTerminals())
	p.toCreate = p.count * net.NumTerminals()
	s.Schedule(p, sim.TimeZero, evInit, nil)
	return p
}

// Stats returns the recorder holding the pulse's own delivered messages.
func (p *Pulse) Stats() *stats.Recorder { return p.rec }

// ProcessEvent drives the application's injectors.
func (p *Pulse) ProcessEvent(ev *sim.Event) {
	switch ev.Type {
	case evInit:
		// Pulse needs no warming; it idles until Start.
		p.w.Ready(p.appID)
	case evInject:
		p.inject(ev.Context.(int))
	default:
		p.Panicf("unknown event type %d", ev.Type)
	}
}

// Start launches the burst after the configured delay.
func (p *Pulse) Start() {
	p.phase = phGenerating
	for t := 0; t < p.net.NumTerminals(); t++ {
		p.scheduleNext(t, p.delay)
	}
}

// Stop transitions to finishing; creation is normally already complete.
func (p *Pulse) Stop() {
	p.phase = phFinishing
	p.maybeDone()
}

// Kill halts any stragglers.
func (p *Pulse) Kill() {
	p.phase = phDraining
}

func (p *Pulse) scheduleNext(term int, extra sim.Tick) {
	if extra > 0 {
		p.next[term] = float64(p.Sim().Now().Tick + extra)
	}
	p.next[term] += p.rng.ExpFloat64() * p.meanGap
	tick := sim.Tick(p.next[term]) + 1
	now := p.Sim().Now().Tick
	if tick <= now {
		tick = now + 1
	}
	p.Sim().Schedule(p, sim.Time{Tick: tick}, evInject, term)
}

func (p *Pulse) inject(term int) {
	if p.phase == phDraining || p.remaining[term] == 0 {
		return
	}
	dst := p.pattern.Dest(p.rng, term)
	m := p.w.NewMessage(p.appID, term, dst, p.msgSize, p.maxPkt)
	m.CreateTime = p.Sim().Now().Tick
	m.Sampled = true
	p.outstanding++
	p.net.Interface(term).SendMessage(m)
	p.remaining[term]--
	p.toCreate--
	if p.remaining[term] > 0 {
		p.scheduleNext(term, 0)
	}
	if p.toCreate == 0 {
		p.w.Complete(p.appID)
	}
}

func (p *Pulse) maybeDone() {
	if p.phase == phFinishing && p.outstanding == 0 {
		p.phase = phDraining
		p.w.Done(p.appID)
	}
}

// DeliverMessage records the burst's deliveries.
func (p *Pulse) DeliverMessage(m *types.Message) {
	p.rec.Record(stats.Sample{
		Start: m.CreateTime,
		End:   m.ReceiveTime,
		Flits: m.TotalFlits(),
		Hops:  m.Packet(0).HopCount,
		App:   m.App,
		Src:   m.Src,
		Dst:   m.Dst,
	})
	p.outstanding--
	if p.outstanding < 0 {
		p.Panicf("outstanding message count went negative")
	}
	p.maybeDone()
}
