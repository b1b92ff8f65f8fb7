package router

import (
	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/types"
)

func init() {
	Registry.Register("input_output_queued", func(s *sim.Simulator, name string, cfg *config.Settings, p Params) Router {
		return NewIOQ(s, name, cfg, p)
	})
}

// IOQ is the combined input/output-queued router architecture: the
// input-queued front end feeding the output-queue back end. It has full
// crossbar input and output speedup — the crossbar core typically runs at a
// frequency multiple of the links ("speedup" setting). Flits wait in the
// input queues only until there is space in the output queues; after
// arriving in the output queues they wait for downstream (next hop) credits.
//
// The architecture supports reporting congestion on a per-VC or per-port
// basis and can view output queue credits, downstream credits, or both —
// the credit accounting styles compared in case study B — through its
// congestion sensor configuration.
type IOQ struct {
	inputStage
	out outputStage
}

// NewIOQ builds an input-output-queued router from its settings block.
func NewIOQ(s *sim.Simulator, name string, cfg *config.Settings, p Params) *IOQ {
	r := &IOQ{}
	initInputStage(&r.inputStage, r, s, name, cfg, p)
	r.out = newOutputStage(&r.base, int(cfg.UIntOr("output_queue_depth", 64)))
	return r
}

// ReceiveCredit accepts a downstream credit for an output port.
func (r *IOQ) ReceiveCredit(port int, c types.Credit) { r.out.receiveCredit(port, c) }

// ProcessEvent dispatches the router's events.
func (r *IOQ) ProcessEvent(ev *sim.Event) {
	if ev.Type == evOutput {
		r.out.drainReady()
		return
	}
	r.inputStage.ProcessEvent(ev)
}

// eligible checks output queue space, not the downstream credits — that is
// the defining property of the IOQ architecture.
func (r *IOQ) eligible(now sim.Tick, port, vc, need int) (ok, retry bool) {
	return r.out.hasRoom(r.client(port, vc), need), false
}

func (r *IOQ) reserve(now sim.Tick, port, vc int, arrive sim.Tick) { r.out.reserve(now, port, vc) }

func (r *IOQ) deliver(port, vc int, f *types.Flit) { r.out.accept(port, vc, f) }

func (r *IOQ) packetRoom(port int) (int, string) { return r.out.outDepth, "output_queue_depth" }

// HOL reports the head-of-line state of one input VC for the stall
// diagnostician.
func (r *IOQ) HOL(port, vc int) HOLState {
	st := r.inputStage.HOL(port, vc)
	if st.Phase == HOLAllocated {
		st.OutQueued = r.out.outOcc[r.client(st.OutPort, st.OutVC)]
		st.OutDepth = r.out.outDepth
	}
	return st
}

// VerifyIdle implements the post-drain quiescence check.
func (r *IOQ) VerifyIdle() {
	r.out.verifyIdle()
	r.inputStage.VerifyIdle()
}

// State implements Router.
func (r *IOQ) State(c *snapshot.Codec, t *types.MessageTable) {
	r.state(c, t)
	r.out.stateQueues(c, t)
	r.out.stateDrain(c)
}
