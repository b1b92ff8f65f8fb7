package telemetry

import (
	"strconv"

	"supersim/internal/sim"
)

// Probes are the component-facing face of the registry: each component asks
// for its probe once at construction (ForChannel, ForRouter, ...) and keeps
// the pointer. When telemetry is not attached the constructors return nil,
// and every probe method is a no-op on a nil receiver — the same contract as
// internal/verify — so components call their hooks unguarded and the
// disabled hot path is still one predictable branch with zero allocations.
// The nil check lives in the method (or, where the body makes calls, in an
// exported wrapper small enough to inline over an unexported body), which
// TestProbesNilSafe enforces for every exported method.

// ChannelProbe observes one flit channel.
type ChannelProbe struct {
	flits *Counter
}

// ForChannel returns the channel probe for the named channel, or nil when
// telemetry is disabled. period is the channel cycle time: with one flit slot
// per period ticks, the snapshot rate U = flits*period/bin is the channel's
// utilization in [0,1].
func ForChannel(s *sim.Simulator, name string, period sim.Tick) *ChannelProbe {
	t := For(s)
	if t == nil {
		return nil
	}
	return &ChannelProbe{
		flits: t.reg.Counter("chan_flits", name, -1, float64(period)),
	}
}

// FlitInjected records one flit entering the channel.
func (p *ChannelProbe) FlitInjected() {
	if p != nil {
		p.flits.Inc()
	}
}

// RouterProbe observes one router: per-VC input-buffer occupancy across all
// ports, cycles an eligible flit stalled waiting for downstream credit,
// VC-allocator grant/denial counts, and total flits forwarded.
type RouterProbe struct {
	occ     []*Gauge
	stall   *Counter
	grants  *Counter
	denials *Counter
	routed  *Counter
}

// ForRouter returns the router probe for the named router with numVCs
// virtual channels, or nil when telemetry is disabled.
func ForRouter(s *sim.Simulator, name string, numVCs int) *RouterProbe {
	t := For(s)
	if t == nil {
		return nil
	}
	p := &RouterProbe{
		occ:     make([]*Gauge, numVCs),
		stall:   t.reg.Counter("credit_stall_cycles", name, -1, 0),
		grants:  t.reg.Counter("vc_alloc_grants", name, -1, 0),
		denials: t.reg.Counter("vc_alloc_denials", name, -1, 0),
		routed:  t.reg.Counter("flits_routed", name, -1, 0),
	}
	for vc := range p.occ {
		p.occ[vc] = t.reg.Gauge("vc_occupancy", name, vc)
	}
	return p
}

// FlitBuffered records a flit entering an input buffer on the given VC.
func (p *RouterProbe) FlitBuffered(vc int) {
	if p != nil {
		p.occ[vc].Add(1)
	}
}

// FlitUnbuffered records a flit leaving an input buffer on the given VC.
func (p *RouterProbe) FlitUnbuffered(vc int) {
	if p != nil {
		p.occ[vc].Add(-1)
	}
}

// CreditStall records one cycle in which an otherwise-eligible flit could not
// advance for lack of downstream credit.
func (p *RouterProbe) CreditStall() {
	if p != nil {
		p.stall.Inc()
	}
}

// Alloc records one VC-allocation round: granted requests and denied
// (still-pending) requests.
func (p *RouterProbe) Alloc(granted, denied int) {
	if p == nil {
		return
	}
	if granted > 0 {
		p.grants.Add(uint64(granted))
	}
	if denied > 0 {
		p.denials.Add(uint64(denied))
	}
}

// FlitRouted records one flit forwarded out of the router.
func (p *RouterProbe) FlitRouted() {
	if p != nil {
		p.routed.Inc()
	}
}

// IfaceProbe observes one network interface: flits sent and received,
// injection cycles lost to backpressure (no credit on any eligible VC), and
// the source queue depth in packets.
type IfaceProbe struct {
	sent     *Counter
	received *Counter
	backpr   *Counter
	depth    *Gauge
}

// ForIface returns the probe of the named interface, or nil when telemetry is
// disabled.
func ForIface(s *sim.Simulator, name string) *IfaceProbe {
	t := For(s)
	if t == nil {
		return nil
	}
	return &IfaceProbe{
		sent:     t.reg.Counter("iface_flits_sent", name, -1, 0),
		received: t.reg.Counter("iface_flits_received", name, -1, 0),
		backpr:   t.reg.Counter("inject_backpressure", name, -1, 0),
		depth:    t.reg.Gauge("source_queue_depth", name, -1),
	}
}

// FlitSent records a flit entering the network.
func (p *IfaceProbe) FlitSent() {
	if p != nil {
		p.sent.Inc()
	}
}

// FlitReceived records a flit delivered at this terminal.
func (p *IfaceProbe) FlitReceived() {
	if p != nil {
		p.received.Inc()
	}
}

// Backpressure records one injection attempt blocked by credit exhaustion.
func (p *IfaceProbe) Backpressure() {
	if p != nil {
		p.backpr.Inc()
	}
}

// QueueDepth records the source queue depth after a change.
func (p *IfaceProbe) QueueDepth(d int) {
	if p != nil {
		p.depth.Set(int64(d))
	}
}

// WorkloadProbe observes one workload: per-application offered and delivered
// flit counts (snapshot rate U = flits per cycle per terminal) and the
// end-to-end message latency distribution.
type WorkloadProbe struct {
	t         *Telemetry
	offered   []*Counter
	delivered []*Counter
	latency   []*Histogram
}

// ForWorkload returns the workload probe for numApps applications over
// terminals endpoints with the given channel period, or nil when telemetry
// is disabled.
func ForWorkload(s *sim.Simulator, numApps, terminals int, period sim.Tick) *WorkloadProbe {
	t := For(s)
	if t == nil {
		return nil
	}
	t.apps = numApps
	scale := 0.0
	if terminals > 0 {
		scale = float64(period) / float64(terminals)
	}
	p := &WorkloadProbe{
		t:         t,
		offered:   make([]*Counter, numApps),
		delivered: make([]*Counter, numApps),
		latency:   make([]*Histogram, numApps),
	}
	for a := 0; a < numApps; a++ {
		comp := "app" + strconv.Itoa(a)
		p.offered[a] = t.reg.Counter("offered_flits", comp, -1, scale)
		p.delivered[a] = t.reg.Counter("delivered_flits", comp, -1, scale)
		p.latency[a] = t.reg.Histogram("msg_latency", comp, -1)
	}
	return p
}

// MessageOffered records a message created by application app with the given
// flit count.
func (p *WorkloadProbe) MessageOffered(app, flits int) {
	if p != nil {
		p.offered[app].Add(uint64(flits))
	}
}

// MessageDelivered records a message delivered to application app: its flit
// count and its end-to-end latency in ticks.
func (p *WorkloadProbe) MessageDelivered(app, flits int, latency sim.Tick) {
	if p == nil {
		return
	}
	p.delivered[app].Add(uint64(flits))
	p.latency[app].Observe(uint64(latency))
}

// Phase records a workload phase transition in the progress document.
func (p *WorkloadProbe) Phase(phase string) {
	if p != nil {
		p.t.SetPhase(phase)
	}
}
