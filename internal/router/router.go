// Package router implements the router microarchitecture models: the
// idealistic output-queued (OQ) architecture, the input-queued (IQ)
// architecture, and the combined input-output-queued (IOQ) architecture.
// All three are assembled from two stages over common plumbing (base: ports,
// credit counters, congestion sensor): inputStage, the input-queued
// front end — routing, VC scheduler, crossbar scheduler with configurable
// flow control (flit-buffer, packet-buffer, winner-take-all), crossbar — and
// outputStage, the output-queue back end. IQ is inputStage alone, IOQ is
// inputStage feeding outputStage, OQ is its own conflict-free transfer
// feeding outputStage. All are configured entirely through JSON settings.
package router

import (
	"supersim/internal/channel"
	"supersim/internal/config"
	"supersim/internal/congestion"
	"supersim/internal/factory"
	"supersim/internal/routing"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/types"
)

// Router is the abstract router model. A router is agnostic of topology: the
// network builds it, wires channels to its ports and supplies the routing
// algorithm constructor.
type Router interface {
	sim.Component
	channel.Receiver

	// ID returns the router's index within the network.
	ID() int
	// Radix returns the number of ports.
	Radix() int
	// NumVCs returns the number of virtual channels per port.
	NumVCs() int
	// InputBufferDepth returns the per-VC input buffer capacity in flits,
	// which is the credit count the upstream device starts with.
	InputBufferDepth() int
	// Sensor returns the router's congestion sensor.
	Sensor() congestion.Tracker

	// VerifyIdle panics unless the router is completely quiescent: all
	// queues empty, no allocations held, and every downstream credit
	// returned. The framework calls it after the network drains to catch
	// leaks (lost flits, stuck packets, credit accounting errors).
	VerifyIdle()

	// HOL reports the head-of-line state of one input VC — what its head
	// flit is, what resource it waits on, and who holds that resource. The
	// stall diagnostician walks these states to render blocked-chain reports.
	HOL(port, vc int) HOLState
	// OutputChannel returns the flit channel leaving an output port, or nil
	// when the port is unconnected.
	OutputChannel(port int) *channel.Channel

	// ConnectOutput wires the flit channel leaving output port.
	ConnectOutput(port int, ch *channel.Channel)
	// ConnectCreditOut wires the credit channel returning credits upstream
	// for the given input port.
	ConnectCreditOut(port int, cc *channel.CreditChannel)
	// SetDownstreamCredits initializes the per-VC credit count for an output
	// port to the downstream device's input buffer depth.
	SetDownstreamCredits(port int, perVC int)

	// State codes the router's mutable state against the walk's message
	// table. Loading runs on a freshly built router of the identical
	// configuration.
	State(c *snapshot.Codec, t *types.MessageTable)
}

// Head-of-line phases reported by HOL, ordered by pipeline progress.
const (
	// HOLEmpty: the input VC holds no flits.
	HOLEmpty = "empty"
	// HOLRouting: the head packet's routing decision is still in flight.
	HOLRouting = "routing"
	// HOLAwaitingVC: routed, waiting for an output VC grant. HolderPort and
	// HolderVC name the input VC currently holding a wanted output VC when
	// every wanted VC is taken.
	HOLAwaitingVC = "awaiting-vc"
	// HOLAllocated: granted an output VC; advancing as switch bandwidth,
	// output-queue space, and downstream credits (Credits) allow.
	HOLAllocated = "allocated"
)

// HOLState is a snapshot of one input VC's head-of-line dependency, the unit
// the stall diagnostician chains together: a blocked head waits on an output
// VC whose holder is itself an input VC (same router), or on downstream
// credits whose owner is across the output channel.
type HOLState struct {
	Flit      *types.Flit // head flit, nil when the VC is empty
	Occupancy int         // flits buffered in this input VC
	Phase     string      // one of the HOL* phase constants

	OutPort, OutVC int // granted output, -1 before allocation

	// For HOLAwaitingVC: the wanted output port and VC set, and the input VC
	// holding a wanted output VC — holder is -1/-1 when a wanted VC is free
	// (transient — a grant is imminent).
	WantPort             int
	WantVCs              []int
	HolderPort, HolderVC int

	// For HOLAllocated: downstream credit count and capacity on the granted
	// output VC, and — on architectures with output queues — that queue's
	// occupancy and capacity (OutDepth is -1 when the architecture has no
	// output queue, 0 when the queue is unbounded).
	Credits, CreditCap  int
	OutQueued, OutDepth int
}
type Params struct {
	ID            int
	Radix         int
	RoutingCtor   routing.Ctor
	ChannelPeriod sim.Tick // link cycle time in ticks
}

// Ctor is the constructor signature registered by router architectures.
type Ctor func(s *sim.Simulator, name string, cfg *config.Settings, p Params) Router

// Registry holds all router architecture implementations.
var Registry = factory.NewRegistry[Ctor]("router")

// New builds the router architecture named by cfg's "architecture" setting.
func New(s *sim.Simulator, name string, cfg *config.Settings, p Params) Router {
	return Registry.MustLookup(cfg.String("architecture"))(s, name, cfg, p)
}
