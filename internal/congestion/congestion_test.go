package congestion

import (
	"testing"
	"testing/quick"

	"supersim/internal/config"
	"supersim/internal/sim"
)

func TestDelayedValueZeroDelay(t *testing.T) {
	d := NewDelayedValue(0, 1.0)
	if d.Get(9) != 1.0 {
		t.Fatalf("Get(9) = %v, want initial", d.Get(9))
	}
	d.Set(10, 5.0)
	if d.Get(10) != 5.0 {
		t.Fatalf("Get(10) = %v", d.Get(10))
	}
}

func TestDelayedValueVisibility(t *testing.T) {
	d := NewDelayedValue(8, 0)
	d.Set(100, 3)
	// value written at 100 becomes visible at 108
	cases := []struct {
		now  sim.Tick
		want float64
	}{{100, 0}, {107, 0}, {108, 3}, {200, 3}}
	for _, c := range cases {
		if got := d.Get(c.now); got != c.want {
			t.Errorf("Get(%d) = %v, want %v", c.now, got, c.want)
		}
	}
}

func TestDelayedValueSequence(t *testing.T) {
	// Reads and writes interleaved in nondecreasing time order, as in a
	// simulation.
	d := NewDelayedValue(10, 0)
	d.Set(100, 1)
	d.Set(105, 2)
	if got := d.Get(109); got != 0 { // horizon 99: nothing visible yet
		t.Errorf("Get(109) = %v, want 0", got)
	}
	d.Set(110, 3)
	cases := []struct {
		now  sim.Tick
		want float64
	}{
		{110, 1},  // horizon 100
		{114, 1},  // horizon 104
		{115, 2},  // horizon 105
		{120, 3},  // horizon 110
		{1000, 3}, // far future
	}
	for _, c := range cases {
		if got := d.Get(c.now); got != c.want {
			t.Errorf("Get(%d) = %v, want %v", c.now, got, c.want)
		}
	}
	if d.Raw() != 3 {
		t.Fatalf("Raw = %v", d.Raw())
	}
}

func TestDelayedValueSameTickOverwrite(t *testing.T) {
	d := NewDelayedValue(5, 0)
	d.Set(50, 1)
	d.Set(50, 2)
	if got := d.Get(55); got != 2 {
		t.Fatalf("Get(55) = %v, want last same-tick write", got)
	}
}

func TestDelayedValueBackwardsPanics(t *testing.T) {
	d := NewDelayedValue(5, 0)
	d.Set(50, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Set(49, 2)
}

func TestDelayedValuePruneKeepsSemantics(t *testing.T) {
	d := NewDelayedValue(4, 0)
	for i := sim.Tick(1); i <= 1000; i++ {
		d.Set(i, float64(i))
	}
	if len(d.hist) > 8 {
		t.Fatalf("history grew to %d entries despite pruning", len(d.hist))
	}
	if got := d.Get(1000); got != 996 {
		t.Fatalf("Get(1000) = %v, want 996", got)
	}
	if got := d.Get(1004); got != 1000 {
		t.Fatalf("Get(1004) = %v, want 1000", got)
	}
}

// Property: with monotone writes, Get(now) returns the last value written at
// or before now-delay.
func TestDelayedValueProperty(t *testing.T) {
	prop := func(delay8 uint8, deltas [12]uint8, probe uint8) bool {
		delay := sim.Tick(delay8 % 20)
		d := NewDelayedValue(delay, -1)
		type w struct {
			t sim.Tick
			v float64
		}
		writes := []w{{0, -1}}
		now := sim.Tick(0)
		for i, dt := range deltas {
			now += sim.Tick(dt%7) + 1
			d.Set(now, float64(i))
			writes = append(writes, w{now, float64(i)})
		}
		q := now + sim.Tick(probe%30)
		want := -1.0
		horizon := sim.Tick(0)
		if q >= delay {
			horizon = q - delay
		}
		for _, wr := range writes {
			if wr.t <= horizon {
				want = wr.v
			}
		}
		return d.Get(q) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCreditSensorPerVCOutput(t *testing.T) {
	cs := NewCreditSensor(4, 2, PerVC, SourceOutput, 0)
	cs.AddOutput(10, 1, 0, 5)
	cs.AddOutput(10, 1, 1, 3)
	if got := cs.Congestion(10, 1, 0); got != 5 {
		t.Fatalf("vc0 = %v", got)
	}
	if got := cs.Congestion(10, 1, 1); got != 3 {
		t.Fatalf("vc1 = %v", got)
	}
	if got := cs.Congestion(10, 0, 0); got != 0 {
		t.Fatalf("other port = %v", got)
	}
	// downstream updates must not affect the output-only source
	cs.AddDownstream(11, 1, 0, 7)
	if got := cs.Congestion(11, 1, 0); got != 5 {
		t.Fatalf("output-only source saw downstream: %v", got)
	}
}

func TestCreditSensorPerPortAggregates(t *testing.T) {
	cs := NewCreditSensor(2, 4, PerPort, SourceOutput, 0)
	cs.AddOutput(5, 0, 0, 2)
	cs.AddOutput(5, 0, 3, 8)
	for vc := 0; vc < 4; vc++ {
		if got := cs.Congestion(5, 0, vc); got != 10 {
			t.Fatalf("port value on vc %d = %v, want 10", vc, got)
		}
	}
}

func TestCreditSensorSources(t *testing.T) {
	mk := func(src Source) *CreditSensor {
		cs := NewCreditSensor(1, 1, PerVC, src, 0)
		cs.AddOutput(1, 0, 0, 4)
		cs.AddDownstream(2, 0, 0, 6)
		return cs
	}
	if got := mk(SourceOutput).Congestion(3, 0, 0); got != 4 {
		t.Fatalf("output = %v", got)
	}
	if got := mk(SourceDownstream).Congestion(3, 0, 0); got != 6 {
		t.Fatalf("downstream = %v", got)
	}
	if got := mk(SourceBoth).Congestion(3, 0, 0); got != 10 {
		t.Fatalf("both = %v", got)
	}
}

func TestCreditSensorLatency(t *testing.T) {
	cs := NewCreditSensor(1, 1, PerVC, SourceOutput, 16)
	cs.AddOutput(100, 0, 0, 50)
	if got := cs.Congestion(100, 0, 0); got != 0 {
		t.Fatalf("visible immediately: %v", got)
	}
	if got := cs.Congestion(115, 0, 0); got != 0 {
		t.Fatalf("visible at 115: %v", got)
	}
	if got := cs.Congestion(116, 0, 0); got != 50 {
		t.Fatalf("not visible at 116: %v", got)
	}
	if cs.Latency() != 16 {
		t.Fatal("Latency accessor")
	}
}

func TestCreditSensorNegativePanics(t *testing.T) {
	cs := NewCreditSensor(1, 1, PerVC, SourceBoth, 0)
	cs.AddOutput(1, 0, 0, 1)
	mustPanic(t, func() { cs.AddOutput(2, 0, 0, -2) })
	cs2 := NewCreditSensor(1, 1, PerVC, SourceBoth, 0)
	mustPanic(t, func() { cs2.AddDownstream(1, 0, 0, -1) })
}

func TestCreditSensorRangeChecks(t *testing.T) {
	cs := NewCreditSensor(2, 2, PerVC, SourceBoth, 0)
	mustPanic(t, func() { cs.AddOutput(1, 2, 0, 1) })
	mustPanic(t, func() { cs.AddOutput(1, 0, 2, 1) })
	mustPanic(t, func() { cs.Congestion(1, -1, 0) })
	csp := NewCreditSensor(2, 2, PerPort, SourceBoth, 0)
	mustPanic(t, func() { csp.Congestion(1, 5, 0) })
	mustPanic(t, func() { NewCreditSensor(0, 1, PerVC, SourceBoth, 0) })
}

func TestSensorFactoryStyles(t *testing.T) {
	// All six credit accounting styles from case study B must build.
	for _, gran := range []string{"vc", "port"} {
		for _, src := range []string{"output", "downstream", "both"} {
			cfg := config.MustParse(`{
			  "type": "credit",
			  "granularity": "` + gran + `",
			  "source": "` + src + `",
			  "latency": 2
			}`)
			tr := New(cfg, 4, 2)
			tr.AddOutput(1, 0, 0, 1)
			_ = tr.Congestion(5, 0, 0)
		}
	}
}

func TestSensorFactoryNull(t *testing.T) {
	tr := New(config.MustParse(`{"type": "null"}`), 4, 2)
	tr.AddOutput(1, 0, 0, 100)
	tr.AddDownstream(1, 0, 0, 100)
	if tr.Congestion(100, 0, 0) != 0 {
		t.Fatal("null sensor must report zero")
	}
}

func TestSensorFactoryDefaults(t *testing.T) {
	// Empty config: credit sensor, vc granularity, both sources, no latency.
	tr := New(config.MustParse(`{}`), 2, 2)
	tr.AddOutput(1, 0, 0, 3)
	if got := tr.Congestion(1, 0, 0); got != 3 {
		t.Fatalf("default sensor = %v", got)
	}
}

func TestSensorFactoryBadValues(t *testing.T) {
	mustPanic(t, func() { New(config.MustParse(`{"granularity": "bogus"}`), 1, 1) })
	mustPanic(t, func() { New(config.MustParse(`{"source": "bogus"}`), 1, 1) })
	mustPanic(t, func() { New(config.MustParse(`{"type": "bogus"}`), 1, 1) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// twoHistorySensor is the reference the credit sensor is checked against:
// it writes both the per-VC and the per-port history on every change and
// reads the one its granularity selects.
type twoHistorySensor struct {
	gran               Granularity
	src                Source
	vcs                int
	outputOcc, downUse []int
	vcVals, portVals   []*DelayedValue
}

func newTwoHistorySensor(ports, vcs int, gran Granularity, src Source, latency sim.Tick) *twoHistorySensor {
	r := &twoHistorySensor{gran: gran, src: src, vcs: vcs,
		outputOcc: make([]int, ports*vcs), downUse: make([]int, ports*vcs)}
	for i := 0; i < ports*vcs; i++ {
		r.vcVals = append(r.vcVals, NewDelayedValue(latency, 0))
	}
	for i := 0; i < ports; i++ {
		r.portVals = append(r.portVals, NewDelayedValue(latency, 0))
	}
	return r
}

func (r *twoHistorySensor) score(i int) float64 {
	switch r.src {
	case SourceOutput:
		return float64(r.outputOcc[i])
	case SourceDownstream:
		return float64(r.downUse[i])
	}
	return float64(r.outputOcc[i] + r.downUse[i])
}

func (r *twoHistorySensor) add(now sim.Tick, counts []int, port, vc, delta int) {
	i := port*r.vcs + vc
	counts[i] += delta
	r.vcVals[i].Set(now, r.score(i))
	total := 0.0
	for v := 0; v < r.vcs; v++ {
		total += r.score(port*r.vcs + v)
	}
	r.portVals[port].Set(now, total)
}

func (r *twoHistorySensor) congestion(now sim.Tick, port, vc int) float64 {
	if r.gran == PerPort {
		return r.portVals[port].Get(now)
	}
	return r.vcVals[port*r.vcs+vc].Get(now)
}

// TestCreditSensorMatchesTwoHistories: keeping only the history Congestion
// reads changes no reading. Random nondecreasing AddOutput/AddDownstream
// sequences run against the sensor and the two-history reference for every
// granularity, source and a range of sensing latencies, and every
// Congestion(now, port, vc) agrees after every update.
func TestCreditSensorMatchesTwoHistories(t *testing.T) {
	const ports, vcs = 3, 2
	for _, gran := range []Granularity{PerVC, PerPort} {
		for _, src := range []Source{SourceOutput, SourceDownstream, SourceBoth} {
			for _, latency := range []sim.Tick{0, 1, 4} {
				prop := func(ops [40]uint16) bool {
					cs := NewCreditSensor(ports, vcs, gran, src, latency)
					ref := newTwoHistorySensor(ports, vcs, gran, src, latency)
					now := sim.Tick(0)
					for _, op := range ops {
						now += sim.Tick(op % 3)
						port, vc := int(op>>2)%ports, int(op>>4)%vcs
						downstream := op&(1<<6) != 0
						counts := ref.outputOcc
						if downstream {
							counts = ref.downUse
						}
						delta := 1 + int(op>>7)%3
						if op&(1<<9) != 0 && counts[port*vcs+vc] >= delta {
							delta = -delta
						}
						if downstream {
							cs.AddDownstream(now, port, vc, delta)
						} else {
							cs.AddOutput(now, port, vc, delta)
						}
						ref.add(now, counts, port, vc, delta)
						for p := 0; p < ports; p++ {
							for v := 0; v < vcs; v++ {
								if cs.Congestion(now, p, v) != ref.congestion(now, p, v) {
									return false
								}
							}
						}
					}
					return true
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
					t.Errorf("granularity %d source %d latency %d: %v", gran, src, latency, err)
				}
			}
		}
	}
}
