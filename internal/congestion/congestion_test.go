package congestion

import (
	"testing"
	"testing/quick"

	"supersim/internal/config"
	"supersim/internal/sim"
)

// delayedValue is the reference the credit sensor's change log is checked
// against: one history per value, which readers see only after a fixed
// delay. get(now) returns the value that was current at time now - delay
// (time 0 before time delay). Writes and reads use nondecreasing times.
type delayedValue struct {
	delay sim.Tick
	hist  []entry
}

type entry struct {
	t sim.Tick
	v float64
}

func newDelayedValue(delay sim.Tick, initial float64) *delayedValue {
	return &delayedValue{delay: delay, hist: []entry{{0, initial}}}
}

// Set records a new value at the given time.
func (d *delayedValue) Set(now sim.Tick, v float64) {
	n := len(d.hist)
	if d.hist[n-1].t > now {
		panic("delayedValue.Set: time went backwards")
	}
	if d.hist[n-1].t == now {
		d.hist[n-1].v = v
	} else {
		d.hist = append(d.hist, entry{now, v})
	}
	d.prune(now)
}

// Get returns the most recent write at or before now - delay.
func (d *delayedValue) Get(now sim.Tick) float64 {
	horizon := d.horizon(now)
	for i := len(d.hist) - 1; i > 0; i-- {
		if d.hist[i].t <= horizon {
			return d.hist[i].v
		}
	}
	return d.hist[0].v
}

// raw returns the most recently written value, ignoring the delay.
func (d *delayedValue) raw() float64 { return d.hist[len(d.hist)-1].v }

func (d *delayedValue) horizon(now sim.Tick) sim.Tick {
	if now >= d.delay {
		return now - d.delay
	}
	return 0
}

// prune drops the entries no read can see again: everything older than the
// newest entry at or before now - delay.
func (d *delayedValue) prune(now sim.Tick) {
	horizon := d.horizon(now)
	cut := 0
	for i := 1; i < len(d.hist) && d.hist[i].t <= horizon; i++ {
		cut = i
	}
	d.hist = d.hist[cut:]
}

func TestDelayedValueZeroDelay(t *testing.T) {
	d := newDelayedValue(0, 1.0)
	if d.Get(9) != 1.0 {
		t.Fatalf("Get(9) = %v, want initial", d.Get(9))
	}
	d.Set(10, 5.0)
	if d.Get(10) != 5.0 {
		t.Fatalf("Get(10) = %v", d.Get(10))
	}
}

func TestDelayedValueVisibility(t *testing.T) {
	d := newDelayedValue(8, 0)
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
	d := newDelayedValue(10, 0)
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
	if d.raw() != 3 {
		t.Fatalf("Raw = %v", d.raw())
	}
}

func TestDelayedValueSameTickOverwrite(t *testing.T) {
	d := newDelayedValue(5, 0)
	d.Set(50, 1)
	d.Set(50, 2)
	if got := d.Get(55); got != 2 {
		t.Fatalf("Get(55) = %v, want last same-tick write", got)
	}
}

func TestDelayedValueBackwardsPanics(t *testing.T) {
	d := newDelayedValue(5, 0)
	d.Set(50, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Set(49, 2)
}

func TestDelayedValuePruneKeepsSemantics(t *testing.T) {
	d := newDelayedValue(4, 0)
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
		d := newDelayedValue(delay, -1)
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
	if cs.latency != 16 {
		t.Fatal("latency not kept")
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
			cs := New(cfg, 4, 2, true)
			cs.AddOutput(1, 0, 0, 1)
			_ = cs.Congestion(5, 0, 0)
		}
	}
}

// TestSensorFactoryNull: type "null", or routing that reads no sensor,
// builds none, and the nil sensor ignores updates and reads zero.
func TestSensorFactoryNull(t *testing.T) {
	for _, c := range []struct {
		doc   string
		reads bool
	}{
		{`{"type": "null"}`, true},
		{`{"type": "credit", "latency": 3}`, false},
		{`{}`, false},
	} {
		cs := New(config.MustParse(c.doc), 4, 2, c.reads)
		if cs != nil {
			t.Fatalf("%s (routing reads a sensor: %v) built one", c.doc, c.reads)
		}
		cs.AddOutput(1, 0, 0, 100)
		cs.AddDownstream(1, 0, 0, -100)
		if cs.Congestion(100, 0, 0) != 0 {
			t.Fatal("nil sensor must report zero")
		}
	}
}

func TestSensorFactoryDefaults(t *testing.T) {
	// Empty config: credit sensor, vc granularity, both sources, no latency.
	cs := New(config.MustParse(`{}`), 2, 2, true)
	cs.AddOutput(1, 0, 0, 3)
	if got := cs.Congestion(1, 0, 0); got != 3 {
		t.Fatalf("default sensor = %v", got)
	}
}

// TestSensorFactoryBadValues: a bad block is an error whether or not routing
// reads the sensor it configures.
func TestSensorFactoryBadValues(t *testing.T) {
	for _, reads := range []bool{true, false} {
		mustPanic(t, func() { New(config.MustParse(`{"granularity": "bogus"}`), 1, 1, reads) })
		mustPanic(t, func() { New(config.MustParse(`{"source": "bogus"}`), 1, 1, reads) })
		mustPanic(t, func() { New(config.MustParse(`{"type": "bogus"}`), 1, 1, reads) })
	}
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
	vcVals, portVals   []*delayedValue
}

func newTwoHistorySensor(ports, vcs int, gran Granularity, src Source, latency sim.Tick) *twoHistorySensor {
	r := &twoHistorySensor{gran: gran, src: src, vcs: vcs,
		outputOcc: make([]int, ports*vcs), downUse: make([]int, ports*vcs)}
	for i := 0; i < ports*vcs; i++ {
		r.vcVals = append(r.vcVals, newDelayedValue(latency, 0))
	}
	for i := 0; i < ports; i++ {
		r.portVals = append(r.portVals, newDelayedValue(latency, 0))
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

// logBounded reports whether every change cs has logged is at or after
// now - latency: catching up on every read and write keeps the log to the
// last latency ticks, whether or not anything reads the sensor.
func logBounded(cs *CreditSensor, now sim.Tick) bool {
	for _, ch := range cs.log.Live() {
		if ch.at+cs.latency < now {
			return false
		}
	}
	return true
}

// TestCreditSensorMatchesTwoHistories: one change log changes no reading.
// Random nondecreasing AddOutput/AddDownstream sequences run against the
// sensor and the two-history reference for every granularity, source and a
// range of sensing latencies. The sensor is read after a random subset of
// the updates, so log entries span several writes, and every read of every
// (port, vc) agrees with the reference. A second sensor takes the same
// updates and is read only at the end. Neither ever holds a log entry older
// than now - latency.
func TestCreditSensorMatchesTwoHistories(t *testing.T) {
	const ports, vcs = 3, 2
	for _, gran := range []Granularity{PerVC, PerPort} {
		for _, src := range []Source{SourceOutput, SourceDownstream, SourceBoth} {
			for _, latency := range []sim.Tick{0, 1, 4} {
				prop := func(ops [40]uint16, reads uint64) bool {
					cs := NewCreditSensor(ports, vcs, gran, src, latency)
					unread := NewCreditSensor(ports, vcs, gran, src, latency)
					ref := newTwoHistorySensor(ports, vcs, gran, src, latency)
					agree := func(cs *CreditSensor, now sim.Tick) bool {
						for p := 0; p < ports; p++ {
							for v := 0; v < vcs; v++ {
								if cs.Congestion(now, p, v) != ref.congestion(now, p, v) {
									return false
								}
							}
						}
						return true
					}
					now := sim.Tick(0)
					for k, op := range ops {
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
						for _, s := range []*CreditSensor{cs, unread} {
							if downstream {
								s.AddDownstream(now, port, vc, delta)
							} else {
								s.AddOutput(now, port, vc, delta)
							}
						}
						ref.add(now, counts, port, vc, delta)
						if reads&(1<<k) != 0 && !agree(cs, now) {
							return false
						}
						if !logBounded(cs, now) || !logBounded(unread, now) {
							return false
						}
					}
					return agree(unread, now) && logBounded(unread, now) &&
						agree(cs, now+latency) && agree(unread, now+latency)
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
					t.Errorf("granularity %d source %d latency %d: %v", gran, src, latency, err)
				}
			}
		}
	}
}
