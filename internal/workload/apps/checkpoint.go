package apps

import "supersim/internal/snapshot"

// Checkpoint state for the supplied application models. The RNG streams are
// derived per-application from the simulator and serialized with the core;
// traffic patterns are stateless value types. What remains is the lifecycle
// phase, the per-terminal Poisson arrival clocks, the injection line,
// sampling bookkeeping, and the recorders.

func statePhase(c *snapshot.Codec, p *appPhase, app string) {
	snapshot.Sint(c, p)
	if c.Loading() && c.Err() == nil && (*p < phWarming || *p > phDraining) {
		c.Failf("%s phase %d out of range", app, int(*p))
	}
}

// stateClocks codes the per-terminal arrival clocks.
func stateClocks(c *snapshot.Codec, next []float64, what string) {
	c.FixedLen(len(next), what)
	for i := range next {
		c.F64(&next[i])
	}
}

// State implements snapshot.Stater.
func (b *Blast) State(c *snapshot.Codec) {
	b.OrderState(c, b)
	statePhase(c, &b.phase, "blast")
	c.Int(&b.outstanding)
	b.rec.State(c)
	b.pktRec.State(c)
	c.U64(&b.skipped)
	c.U64(&b.generated)
	stateClocks(c, b.next, "blast arrival clocks")
	b.line.state(c, "blast injection line")
}

// State implements snapshot.Stater.
func (p *Pulse) State(c *snapshot.Codec) {
	p.OrderState(c, p)
	statePhase(c, &p.phase, "pulse")
	c.FixedLen(len(p.remaining), "pulse terminals")
	for i := range p.remaining {
		c.Int(&p.remaining[i])
	}
	c.Int(&p.toCreate)
	c.Int(&p.outstanding)
	p.rec.State(c)
	stateClocks(c, p.next, "pulse arrival clocks")
	p.line.state(c, "pulse injection line")
}
