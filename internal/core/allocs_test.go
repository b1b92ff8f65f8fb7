package core

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"supersim/internal/config"
	"supersim/internal/network"
	"supersim/internal/router"
	"supersim/internal/sim"
	"supersim/internal/workload"
)

// The flit path's zero-allocation discipline, measured: once a simulation is
// warm its message pool, event free list, FIFOs and queue slabs have reached
// their high-water marks, and advancing it further must not allocate per
// flit, per packet or per message. TestSteadyStateAllocations counts heap
// objects (runtime.MemStats.Mallocs) over a fixed window of ticks after a
// warm-up and bounds them per executed event, for every model a
// configuration can select.
const (
	// allocWarmup is the tick every simulation runs to before the window
	// opens: long enough for every pool and buffer to reach its steady size.
	allocWarmup sim.Tick = 6000
	// allocWindow is the number of ticks measured.
	allocWindow sim.Tick = 6000
	// maxAllocsPerKiloEvent bounds heap objects per 1,000 events executed in
	// the window. Clean configurations measure below 1 (amortized FIFO and
	// free-list growth, the recorder's chunks); one allocation per message
	// measures 9-18, one per routed flit far more.
	maxAllocsPerKiloEvent = 5
)

// allocNetworks is one small network per registered topology: the network
// block's own keys.
var allocNetworks = map[string]string{
	"dragonfly":   `"topology": "dragonfly", "concentration": 2, "group_size": 2, "global_links": 2`,
	"folded_clos": `"topology": "folded_clos", "half_radix": 2, "levels": 3`,
	"hyperx":      `"topology": "hyperx", "widths": [4, 4], "concentration": 1`,
	"parking_lot": `"topology": "parking_lot", "routers": 4`,
	"torus":       `"topology": "torus", "dimensions": [4, 4], "concentration": 1`,
}

// allocRoutes is every (topology, routing algorithm) pair CONFIG.md lists;
// an empty algorithm is a topology's one unnamed routing.
var allocRoutes = []struct{ topo, alg string }{
	{"dragonfly", "minimal"},
	{"dragonfly", "valiant"},
	{"dragonfly", "ugal"},
	{"folded_clos", "adaptive_uprouting"},
	{"folded_clos", "oblivious_uprouting"},
	{"hyperx", "dimension_order"},
	{"hyperx", "valiant"},
	{"hyperx", "ugal"},
	{"parking_lot", ""},
	{"torus", "dimension_order"},
}

// allocBlast is a blast application whose sampling window outlasts the
// measured one, so the whole window is steady-state generation.
const allocBlast = `{"type": "blast", "injection_rate": 0.2, "message_size": 4,
  "max_packet_size": 2, "warmup_duration": 500, "sample_duration": 1000000,
  "traffic": {"type": "uniform_random"}}`

// allocDoc assembles a settings document from a topology, its routing
// algorithm, extra router keys and one application.
func allocDoc(topo, alg, routerKeys, app string) string {
	routing := ""
	if alg != "" {
		routing = fmt.Sprintf(`, "routing": {"algorithm": %q}`, alg)
	}
	return fmt.Sprintf(`{
	  "simulation": {"seed": 7},
	  "network": {
	    %s,
	    "channel": {"latency": 4, "period": 2},
	    "injection": {"latency": 2},
	    "router": {"num_vcs": 4, "input_buffer_depth": 8, "crossbar_latency": 2, %s}%s
	  },
	  "workload": {"applications": [%s]}
	}`, allocNetworks[topo], routerKeys, routing, app)
}

// configRoutings returns the routing algorithms CONFIG.md's topology table
// lists for a topology: the backquoted names of the row's last column, notes
// in parentheses left out.
func configRoutings(t *testing.T, doc, topo string) []string {
	t.Helper()
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "| `"+topo+"` |") {
			continue
		}
		cols := strings.Split(line, "|")
		if len(cols) < 4 {
			t.Fatalf("CONFIG.md topology row %q has no routing column", line)
		}
		algs := regexp.MustCompile(`\([^)]*\)`).ReplaceAllString(cols[3], "")
		var out []string
		for _, m := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(algs, -1) {
			out = append(out, m[1])
		}
		sort.Strings(out)
		return out
	}
	t.Fatalf("CONFIG.md has no topology row for %q", topo)
	return nil
}

type allocCase struct {
	name string
	cfg  *config.Settings
}

// allocCases is the measured configuration set: the routing table crossed
// with every router architecture, one row per non-default router, sensor and
// application model, and the golden cases with verification off and on,
// with telemetry and on the sharded engine.
func allocCases(t *testing.T) []allocCase {
	var cases []allocCase
	add := func(name, doc string) {
		cases = append(cases, allocCase{name, config.MustParse(doc)})
	}
	for _, r := range allocRoutes {
		for _, arch := range router.Registry.Names() {
			name := r.topo + "/" + arch
			if r.alg != "" {
				name = r.topo + "_" + r.alg + "/" + arch
			}
			add(name, allocDoc(r.topo, r.alg, fmt.Sprintf(`"architecture": %q`, arch), allocBlast))
		}
	}
	const iq = `"architecture": "input_queued"`
	add("packet_buffer", allocDoc("torus", "", iq+`, "flow_control": "packet_buffer"`, allocBlast))
	add("winner_take_all", allocDoc("torus", "", iq+`, "flow_control": "winner_take_all"`, allocBlast))
	add("crossbar_age_based", allocDoc("torus", "", iq+`, "crossbar_policy": "age_based", "vc_policy": "age_based"`, allocBlast))
	add("crossbar_random", allocDoc("torus", "", iq+`, "crossbar_policy": "random"`, allocBlast))
	add("null_sensor", allocDoc("hyperx", "ugal", iq+`, "congestion_sensor": {"type": "null"}`, allocBlast))
	add("pulse", allocDoc("torus", "", iq, `{"type": "pulse", "injection_rate": 0.2,
	  "message_size": 4, "max_packet_size": 2, "count": 1000000,
	  "traffic": {"type": "uniform_random"}}`))

	for _, gc := range goldenCases() {
		const sampled = `"sample_duration": 1500`
		if !strings.Contains(gc.doc, sampled) {
			t.Fatalf("golden %s no longer sets %s", gc.name, sampled)
		}
		doc := strings.Replace(gc.doc, sampled, `"sample_duration": 1000000`, 1)
		for _, mode := range []struct {
			name string
			key  string
			val  any
		}{
			{"verify", "", nil},
			{"plain", "simulation.verify.enabled", false},
			{"telemetry", "simulation.telemetry.enabled", true},
			{"workers2", "simulation.workers", 2},
		} {
			cfg := config.MustParse(doc)
			if mode.key != "" {
				cfg.Set(mode.key, mode.val)
			}
			cases = append(cases, allocCase{"golden_" + gc.name + "/" + mode.name, cfg})
		}
	}
	return cases
}

// steadyStateAllocs builds the simulation, runs it to allocWarmup and
// returns the heap objects allocated and the events executed over the next
// allocWindow ticks.
func steadyStateAllocs(t *testing.T, cfg *config.Settings) (allocs, events uint64) {
	t.Helper()
	sm := Build(cfg)
	advance := func(to sim.Tick) {
		if sm.engine != nil {
			sm.engine.RunUntil(to)
		} else {
			sm.Sim.RunUntil(to)
		}
	}
	executed := func() (n uint64) {
		for _, s := range sm.sims() {
			n += s.Executed()
		}
		return n
	}
	advance(allocWarmup)
	start := executed()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	advance(allocWarmup + allocWindow)
	runtime.ReadMemStats(&after)
	if p := sm.Workload.Phase(); p != workload.Generating {
		t.Fatalf("workload left steady-state generation before the window closed: %v", p)
	}
	return after.Mallocs - before.Mallocs, executed() - start
}

// TestSteadyStateAllocations holds every model to the zero-allocation flit
// path. The routing table must cover what a configuration can select:
// its topologies are network.Registry's and, per topology, its algorithms
// are the ones CONFIG.md lists, so a new model without a row fails here.
func TestSteadyStateAllocations(t *testing.T) {
	configDoc, err := os.ReadFile("../../CONFIG.md")
	if err != nil {
		t.Fatal(err)
	}
	var topos []string
	for topo := range allocNetworks {
		topos = append(topos, topo)
	}
	sort.Strings(topos)
	if names := network.Registry.Names(); !reflect.DeepEqual(topos, names) {
		t.Fatalf("allocNetworks covers %v, registered topologies are %v", topos, names)
	}
	routes := map[string][]string{}
	for _, r := range allocRoutes {
		routes[r.topo] = append(routes[r.topo], r.alg)
	}
	for _, topo := range topos {
		got := routes[topo]
		sort.Strings(got)
		want := configRoutings(t, string(configDoc), topo)
		if len(want) == 0 {
			want = []string{""} // the topology's one unnamed routing
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: allocRoutes has routing algorithms %q, CONFIG.md lists %q", topo, got, want)
		}
	}

	for _, c := range allocCases(t) {
		t.Run(c.name, func(t *testing.T) {
			allocs, events := steadyStateAllocs(t, c.cfg)
			if events == 0 {
				t.Fatal("no events executed in the window")
			}
			perKilo := float64(allocs) * 1000 / float64(events)
			t.Logf("%d allocations over %d events (%.2f per 1,000)", allocs, events, perKilo)
			if perKilo > maxAllocsPerKiloEvent {
				t.Errorf("%d heap allocations over %d steady-state events: %.1f per 1,000 events, bound %d",
					allocs, events, perKilo, maxAllocsPerKiloEvent)
			}
		})
	}
}
