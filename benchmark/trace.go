package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// span is one timed call into the simulator's public surface. Spans are
// recorded by the benchmark, around the calls it makes; the simulator holds
// none of this. Times are nanoseconds since the child started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the root
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"` // set by the parent
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"` // duration minus the children's durations
}

// tracer keeps an op's spans in memory. When off, begin and end do nothing.
type tracer struct {
	on    bool
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name,
		StartNS: time.Since(processStart).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	s := &t.spans[id]
	s.EndNS = time.Since(processStart).Nanoseconds()
	s.SelfNS += s.EndNS - s.StartNS
	if s.Parent >= 0 {
		t.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
	}
}

// spanSeconds sums the durations of an op's spans with the given name.
func spanSeconds(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

func writeSpans(path string, ops []opResult) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, o := range ops {
		for _, s := range o.Spans {
			s.Workload, s.Rep = o.Workload, o.Rep
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// cpuBuckets are the layers a run span's CPU samples are split into; every
// sample lands in exactly one, so the shares sum to 100%. The router bucket
// is also reported by receiver type, which is how IOQ, IQ and OQ cost is
// told apart; those three are parts of router, not additions to it.
var cpuBuckets = []string{
	"sim", "engine", "stats", "router", "routing", "allocator", "arbiter",
	"crossbar", "congestion", "channel", "netiface", "network", "workload",
	"types", "snapshot", "telemetry", "runtime", "other",
}

var routerParts = []string{"router.ioq", "router.iq", "router.oq"}

var (
	internalPkg = regexp.MustCompile(`^supersim/internal/([a-z]+)[./]`)
	// The sharded engine is sim/parallel.go: the Engine, its shard state and
	// the remote ports between shards.
	engineFunc = regexp.MustCompile(`^supersim/internal/sim\.\(\*(Engine|shardState|RemotePort)\)`)
	// Where a goroutine blocks, wakes another or looks for work: the part of
	// the engine's synchronisation that is spent in the Go runtime.
	waitFunc = regexp.MustCompile(`^(runtime\.(futex|usleep|osyield|procyield|lock2|unlock2|chansend|chanrecv|selectgo|gopark|goready|ready|schedule|findRunnable|stealWork|park_m|mcall|notesleep|notewakeup|wakep|startm|stopm)|(internal/)?sync\.\(\*(Mutex|Cond|WaitGroup)\))`)
)

// bucketOf names the layer a function's own CPU samples belong to, and for
// router methods the receiver type's part.
func bucketOf(fn string) (bucket, part string) {
	switch {
	case engineFunc.MatchString(fn), waitFunc.MatchString(fn):
		return "engine", ""
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") || !strings.Contains(fn, "."):
		// A name without a package is one of the runtime's assembly bodies
		// (aeshashbody, memeqbody, gcWriteBarrier).
		return "runtime", ""
	}
	m := internalPkg.FindStringSubmatch(fn)
	if m == nil {
		return "other", ""
	}
	pkg := m[1]
	if pkg == "router" {
		for _, typ := range []string{"IOQ", "IQ", "OQ"} {
			if strings.HasPrefix(fn, "supersim/internal/router.(*"+typ+")") {
				return pkg, "router." + strings.ToLower(typ)
			}
		}
		return pkg, ""
	}
	if slices.Contains(cpuBuckets, pkg) {
		return pkg, ""
	}
	return "other", ""
}

// cpuShares reduces CPU profiles with `go tool pprof -top` and returns the
// percentage of samples whose leaf function lies in each bucket.
func cpuShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-unit=ms"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go tool pprof: %v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := map[string]float64{}
	total := 0.0
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		// flat flat% sum% cum cum% name...
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unexpected line %q", line)
		}
		bucket, part := bucketOf(f[5])
		flat[bucket] += ms
		if part != "" {
			flat[part] += ms
		}
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %v", profiles)
	}
	shares := map[string]float64{}
	for _, b := range slices.Concat(cpuBuckets, routerParts) {
		shares[b] = 100 * flat[b] / total
	}
	return shares, nil
}
