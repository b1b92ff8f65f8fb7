package router

import (
	"supersim/internal/config"
	"supersim/internal/sim"
	"supersim/internal/snapshot"
	"supersim/internal/types"
)

func init() {
	Registry.Register("input_queued", func(s *sim.Simulator, name string, cfg *config.Settings, p Params) Router {
		return NewIQ(s, name, cfg, p)
	})
}

// IQ is the input-queued router architecture: the input-queued front end
// with nothing behind the crossbar but the channel. Flits wait in the input
// queues until downstream (next hop) credits are available, and enter the
// channel the moment they leave the crossbar.
type IQ struct {
	inputStage
	nextChanStart []sim.Tick // per output port: earliest channel inject tick
}

// NewIQ builds an input-queued router from its settings block.
func NewIQ(s *sim.Simulator, name string, cfg *config.Settings, p Params) *IQ {
	r := &IQ{}
	initInputStage(&r.inputStage, r, s, name, cfg, p)
	r.nextChanStart = make([]sim.Tick, r.radix)
	return r
}

// ReceiveCredit accepts a downstream credit for an output port.
func (r *IQ) ReceiveCredit(port int, c types.Credit) {
	r.returnDownstreamCredit(port, c.VC)
	r.schedulePipeline()
}

// eligible checks the downstream credits, then that the channel will be free
// by the time the flit has crossed the crossbar.
func (r *IQ) eligible(now sim.Tick, port, vc, need int) (ok, retry bool) {
	if r.downCred[port][vc] < need {
		r.tp.CreditStall()
		return false, false
	}
	if r.nextChanStart[port] > now+r.xbarLat {
		return false, true
	}
	return true, false
}

func (r *IQ) reserve(now sim.Tick, port, vc int, arrive sim.Tick) {
	r.takeDownstreamCredit(port, vc)
	r.nextChanStart[port] = arrive + r.chanPeriod
}

func (r *IQ) deliver(port, vc int, f *types.Flit) { r.outCh[port].Inject(f, vc) }

func (r *IQ) packetRoom(port int) (int, string) {
	return r.downCap[port], "the next hop's per-VC input_buffer_depth"
}

// State implements Router.
func (r *IQ) State(c *snapshot.Codec, t *types.MessageTable) {
	r.state(c, t)
	c.FixedLen(len(r.nextChanStart), "router channel-start slots")
	for i := range r.nextChanStart {
		snapshot.Uint(c, &r.nextChanStart[i])
	}
}
