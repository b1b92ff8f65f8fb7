package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// contract is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and the share of the base's median by which it may
// worsen before that counts as a regression.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setupFloorS is setup_s's absolute floor: Build takes tens of
// milliseconds, where a few milliseconds of process start-up noise is a
// large share. A difference or spread below the floor counts as none.
const setupFloorS = 0.02

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareSets prints one row per (end-to-end metric, workload) with both
// values and quartiles, the ratio b/a, the bound and a verdict:
//
//	regressed   b is worse than a by more than the bound and the spread
//	unresolved  the runs of a or of b spread wider than the bound
//	ok          otherwise
//
// It returns 1 if any row regressed or b failed a larger share of its ops.
func compareSets(contractPath, pathA, pathB string, stdout, stderr io.Writer) int {
	var c contract
	var a, b resultSet
	for _, in := range []struct {
		path string
		v    any
	}{{contractPath, &c}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if a.Seed != b.Seed || a.Scale != b.Scale {
		fmt.Fprintf(stderr, "benchmark: sets differ in input: seed %d scale %g against seed %d scale %g\n", a.Seed, a.Scale, b.Seed, b.Scale)
		return 2
	}
	lanesB := map[string]laneReport{}
	for _, r := range b.Workloads {
		lanesB[r.Workload] = r
	}

	bad := false
	fmt.Fprintf(stdout, "a: %s (%s, %s)\nb: %s (%s, %s)\n", pathA, a.Machine, a.Go, pathB, b.Machine, b.Go)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\ta value [q1, q3] n\tb value [q1, q3] n\tb/a\tbound\tverdict")
	for _, ra := range a.Workloads {
		rb, ok := lanesB[ra.Workload]
		if !ok {
			continue
		}
		for _, bound := range c.EndToEnd {
			ma, mb := findMetric(ra.EndToEnd, bound.Name), findMetric(rb.EndToEnd, bound.Name)
			if ma == nil || mb == nil || ma.Value == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\tmissing\n", bound.Name, ra.Workload)
				bad = true
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if bound.Better == "higher" {
				worse = -worse
			}
			spread := max(ma.Q3-ma.Q1, mb.Q3-mb.Q1) / ma.Value
			if bound.Name == "setup_s" {
				if math.Abs(mb.Value-ma.Value) < setupFloorS {
					worse = 0
				}
				if spread*ma.Value < setupFloorS {
					spread = 0
				}
			}
			verdict := "ok"
			switch {
			case worse > max(bound.Bound, spread):
				verdict = "regressed"
				bad = true
			case spread > bound.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%.3f of a's %.4g %s\t%.0f%%\t%s\n",
				bound.Name, ra.Workload,
				ma.Value, ma.Q1, ma.Q3, len(ma.Samples),
				mb.Value, mb.Q1, mb.Q3, len(mb.Samples),
				mb.Value/ma.Value, ma.Value, ma.Unit, 100*bound.Bound, verdict)
		}
		// One op is one simulation; a larger failed share in b is a
		// regression whatever the times say.
		verdict := "ok"
		if rb.Failed*ra.Attempted > ra.Failed*rb.Attempted {
			verdict = "regressed"
			bad = true
		}
		fmt.Fprintf(tw, "ops_failed/ops_attempted\t%s\t%d/%d\t%d/%d\t\t\t%s\n",
			ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted, verdict)
		// Simulated counts repeat exactly for one input, so any difference
		// is a change in what was simulated, not noise.
		if len(ra.Ops) > 0 && len(rb.Ops) > 0 {
			oa, ob := ra.Ops[0], rb.Ops[0]
			for _, cnt := range []struct {
				name string
				a, b uint64
			}{
				{"sim.events", oa.Events, ob.Events},
				{"channel.flit_hops", oa.FlitHops, ob.FlitHops},
				{"stats.samples", uint64(oa.Samples), uint64(ob.Samples)},
			} {
				verdict := "same"
				if cnt.a != cnt.b {
					verdict = "differs"
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t\t\t%s\n", cnt.name, ra.Workload, cnt.a, cnt.b, verdict)
			}
		}
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}

func findMetric(ms []metric, name string) *metric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}
