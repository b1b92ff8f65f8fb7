// Package network defines the abstract Network component: the owner of the
// topology and its routing algorithm. A Network instantiates Router and
// Interface components and connects them with Channel components, but does
// not define their architectures — the router microarchitecture and the
// topology with its routing algorithm are modeled independently.
//
// Concrete topologies live in sub-packages (torus, foldedclos, hyperx,
// dragonfly, parkinglot) and self-register with this package's Registry.
package network

import (
	"fmt"

	"supersim/internal/channel"
	"supersim/internal/config"
	"supersim/internal/factory"
	"supersim/internal/netiface"
	"supersim/internal/router"
	"supersim/internal/routing"
	"supersim/internal/sim"
)

// Network is the abstract topology component.
type Network interface {
	// NumTerminals returns the number of endpoint terminals.
	NumTerminals() int
	// NumRouters returns the number of routers.
	NumRouters() int
	// Router returns the i-th router.
	Router(i int) router.Router
	// Interface returns the interface serving terminal i.
	Interface(i int) *netiface.Interface
	// Channels returns all flit channels, for utilization statistics.
	Channels() []*channel.Channel
	// ChannelPeriod returns the link cycle time in ticks (one flit per
	// period per channel), the unit offered load is normalized against.
	ChannelPeriod() sim.Tick
	// Links returns every channel pair in the network, injection and
	// ejection links included.
	Links() []Link
}

// Link records one unidirectional connection: the flit channel and its
// paired credit channel, which runs in the opposite direction.
type Link struct {
	Ch *channel.Channel
	Cr *channel.CreditChannel
}

// Ctor is the constructor signature registered by topologies. The cfg is the
// whole "network" settings block.
type Ctor func(s *sim.Simulator, cfg *config.Settings) Network

// Registry holds all topology implementations.
var Registry = factory.NewRegistry[Ctor]("network")

// New builds the topology named by cfg's "topology" setting.
func New(s *sim.Simulator, cfg *config.Settings) Network {
	return Registry.MustLookup(cfg.String("topology"))(s, cfg)
}

// Base provides the construction helpers shared by all topologies: building
// routers and interfaces from the shared settings blocks and wiring ports
// together with paired flit and credit channels.
type Base struct {
	Sim *sim.Simulator
	Cfg *config.Settings

	Routers    []router.Router
	Interfaces []*netiface.Interface
	Chans      []*channel.Channel
	AllLinks   []Link

	ChanPeriod  sim.Tick // link cycle time
	ChanLatency sim.Tick // router-to-router propagation latency
	InjLatency  sim.Tick // terminal-to-router propagation latency
	EjectDepth  int      // interface receive buffer depth (credits for eject ports)
}

// NewBase parses the shared channel/interface settings of a network block.
func NewBase(s *sim.Simulator, cfg *config.Settings) Base {
	b := Base{
		Sim:         s,
		Cfg:         cfg,
		ChanPeriod:  sim.Tick(cfg.UIntOr("channel.period", 1)),
		ChanLatency: sim.Tick(cfg.UIntOr("channel.latency", 1)),
		InjLatency:  sim.Tick(cfg.UIntOr("injection.latency", 1)),
		EjectDepth:  int(cfg.UIntOr("interface.receive_buffer_depth", 64)),
	}
	if b.ChanPeriod == 0 || b.ChanLatency == 0 || b.InjLatency == 0 {
		panic("network: channel period and latencies must be positive")
	}
	if b.EjectDepth <= 0 {
		panic("network: interface.receive_buffer_depth must be positive")
	}
	return b
}

// BuildRouter constructs router id with the given radix and routing
// algorithm constructor, appending it to Routers. readsCongestion says
// whether the routing algorithm reads the router's congestion sensor; the
// router builds none when it does not. Routers must be built in id order.
func (b *Base) BuildRouter(id, radix int, rc routing.Ctor, readsCongestion bool) router.Router {
	if id != len(b.Routers) {
		panic(fmt.Sprintf("network: routers must be built in order: got %d, want %d", id, len(b.Routers)))
	}
	name := fmt.Sprintf("router_%d", id)
	r := router.New(b.Sim, name, b.Cfg.Sub("router"), router.Params{
		ID:              id,
		Radix:           radix,
		RoutingCtor:     rc,
		ChannelPeriod:   b.ChanPeriod,
		ReadsCongestion: readsCongestion,
	})
	b.Routers = append(b.Routers, r)
	return r
}

// BuildInterface constructs the interface for terminal id with the given
// injection policy, appending it to Interfaces. Interfaces must be built in
// id order.
func (b *Base) BuildInterface(id, vcs int, policy netiface.InjectionPolicy) *netiface.Interface {
	if id != len(b.Interfaces) {
		panic(fmt.Sprintf("network: interfaces must be built in order: got %d, want %d", id, len(b.Interfaces)))
	}
	name := fmt.Sprintf("interface_%d", id)
	ifc := netiface.New(b.Sim, name, id, b.Cfg.SubOr("interface"), vcs, b.ChanPeriod, policy)
	b.Interfaces = append(b.Interfaces, ifc)
	return ifc
}

// Link wires a unidirectional router-to-router connection: a flit channel
// from (src, srcPort) to (dst, dstPort) plus the reverse credit channel, and
// initializes src's credit counters from dst's input buffer depth.
func (b *Base) Link(src router.Router, srcPort int, dst router.Router, dstPort int) {
	name := fmt.Sprintf("ch_r%dp%d_r%dp%d", src.ID(), srcPort, dst.ID(), dstPort)
	ch := channel.New(b.Sim, name, b.ChanLatency, b.ChanPeriod)
	ch.SetSink(dst, dstPort)
	src.ConnectOutput(srcPort, ch)
	b.Chans = append(b.Chans, ch)

	cc := channel.NewCredit(b.Sim, "cr_"+name, b.ChanLatency)
	cc.SetSink(src, srcPort)
	dst.ConnectCreditOut(dstPort, cc)

	src.SetDownstreamCredits(srcPort, dst.InputBufferDepth())
	b.AllLinks = append(b.AllLinks, Link{Ch: ch, Cr: cc})
}

// LinkBidir wires both directions between two router ports.
func (b *Base) LinkBidir(a router.Router, aPort int, z router.Router, zPort int) {
	b.Link(a, aPort, z, zPort)
	b.Link(z, zPort, a, aPort)
}

// AttachTerminal wires interface ifc to (r, port) in both directions:
// injection (interface -> router) and ejection (router -> interface), each
// with its credit return channel.
func (b *Base) AttachTerminal(ifc *netiface.Interface, r router.Router, port int) {
	// Injection direction.
	injName := fmt.Sprintf("ch_t%d_r%dp%d", ifc.ID(), r.ID(), port)
	inj := channel.New(b.Sim, injName, b.InjLatency, b.ChanPeriod)
	inj.SetSink(r, port)
	ifc.ConnectOutput(inj)
	b.Chans = append(b.Chans, inj)

	injCr := channel.NewCredit(b.Sim, "cr_"+injName, b.InjLatency)
	injCr.SetSink(ifc, 0)
	r.ConnectCreditOut(port, injCr)
	ifc.SetDownstreamCredits(r.InputBufferDepth())
	b.AllLinks = append(b.AllLinks, Link{Ch: inj, Cr: injCr})

	// Ejection direction.
	ejName := fmt.Sprintf("ch_r%dp%d_t%d", r.ID(), port, ifc.ID())
	ej := channel.New(b.Sim, ejName, b.InjLatency, b.ChanPeriod)
	ej.SetSink(ifc, 0)
	r.ConnectOutput(port, ej)
	b.Chans = append(b.Chans, ej)

	ejCr := channel.NewCredit(b.Sim, "cr_"+ejName, b.InjLatency)
	ejCr.SetSink(r, port)
	ifc.ConnectCreditOut(ejCr)
	r.SetDownstreamCredits(port, b.EjectDepth)
	b.AllLinks = append(b.AllLinks, Link{Ch: ej, Cr: ejCr})
}

// NumRouters returns the number of routers built.
func (b *Base) NumRouters() int { return len(b.Routers) }

// NumTerminals returns the number of interfaces built.
func (b *Base) NumTerminals() int { return len(b.Interfaces) }

// Router returns the i-th router.
func (b *Base) Router(i int) router.Router { return b.Routers[i] }

// Interface returns the interface serving terminal i.
func (b *Base) Interface(i int) *netiface.Interface { return b.Interfaces[i] }

// Channels returns all flit channels.
func (b *Base) Channels() []*channel.Channel { return b.Chans }

// Links returns every recorded link with endpoint ownership.
func (b *Base) Links() []Link { return b.AllLinks }

// ChannelPeriod returns the link cycle time in ticks.
func (b *Base) ChannelPeriod() sim.Tick { return b.ChanPeriod }
