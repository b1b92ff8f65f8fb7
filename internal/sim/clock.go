package sim

// Clock represents one clock domain in a multi-frequency design. A clock is
// specified by its cycle time in ticks (the Period); its edges are the
// multiples of the period. Designs may instantiate any number of clocks; this
// is most commonly used to model switch frequency speedup where the switch
// core runs at a higher frequency than the links.
type Clock struct {
	period Tick
}

// NewClock creates a clock with the given cycle time in ticks, which must be
// positive.
func NewClock(period Tick) *Clock {
	if period == 0 {
		panic("sim: clock period must be positive")
	}
	return &Clock{period: period}
}

// Period returns the cycle time in ticks.
func (c *Clock) Period() Tick { return c.period }

// NextEdge returns the earliest edge tick that is >= t.
func (c *Clock) NextEdge(t Tick) Tick {
	if r := t % c.period; r != 0 {
		return t + (c.period - r)
	}
	return t
}

// FutureEdge returns the edge tick `cycles` full cycles after the next edge
// at or after t. FutureEdge(t, 0) == NextEdge(t).
func (c *Clock) FutureEdge(t Tick, cycles uint64) Tick {
	return c.NextEdge(t) + Tick(cycles)*c.period
}
