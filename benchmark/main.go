// Command benchmark measures the simulator's host speed. It is the one way
// this repository's performance is measured: six named workloads, three
// end-to-end metrics taken with tracing off, and a separate traced run that
// attributes the time to the simulator's packages from outside. README.md
// has the tables; BENCHMARK.json at the repository root is the contract.
//
//	go run -C benchmark . -workload fb_ioq -seed 1 -seconds 16 -trace 0
//	go run -C benchmark . -reps 5 -out set1.json      # every workload, interleaved
//	go run -C benchmark . -reps 1 -trace 1            # per-layer metrics
//	go run -C benchmark . -compare set1.json set2.json
//
// Every simulation runs in its own child process (a re-exec of this
// binary), one at a time, so peak memory and start-up are per simulation.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		childMain(spec)
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// fingerprintsJSON is the expected simulated outcome of each base workload
// at seed 1, scale 1.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

type options struct {
	workload string
	seed     uint64
	seconds  float64
	reps     int
	trace    bool
	scale    float64
	out      string
	traceDir string
}

// run is main without the process: it returns the exit code. 0 means every
// op was correct (or, for -compare, nothing regressed).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "workload to run; empty runs all six, interleaved round-robin")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the only thing that reaches simulation.seed")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure each workload for this long; 0 measures -reps simulations instead")
	fs.IntVar(&o.reps, "reps", 5, "simulations per workload when -seconds is 0")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced simulation per repetition and reports the per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies every workload's simulated duration; only 1 is comparable across runs")
	fs.StringVar(&o.out, "out", "", "write the full result set to this JSON file, for -compare")
	fs.StringVar(&o.traceDir, "tracedir", "", "directory for CPU profiles and spans.jsonl (default <root>/.bench_build/trace)")
	fs.BoolVar(&compare, "compare", false, "compare two result sets: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result set files")
			return 2
		}
		return compareSets(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || trace < 0 || trace > 1 || o.scale <= 0 || o.reps < 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	o.trace = trace == 1
	if o.traceDir == "" {
		o.traceDir = filepath.Join(root, ".bench_build", "trace")
	}

	s, err := newSession(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	s.measure(ctx)
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "benchmark: interrupted")
		return 2
	}
	return s.report(stdout)
}

// findRoot returns the nearest directory at or above the working directory
// that holds BENCHMARK.json: the checkout the benchmark may write inside.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// A lane is one workload's ops within a session.
type lane struct {
	w        *workload
	untraced []opResult // correct ops only: a failed op's times mean nothing
	traced   []opResult
	// ref runs the base workload of an fb_ioq.* lane when the base was not
	// itself asked for: its fingerprint is what the lane must print, and its
	// run_s is the base of the lane's ratios.
	ref *lane

	attempted, failed int
	cycles            int
	spent, lastCycle  time.Duration
}

type session struct {
	opt    options
	exe    string
	lanes  []*lane
	want   map[string]string // workload base -> the fingerprint its ops must print
	stderr io.Writer
}

func newSession(o options, stderr io.Writer) (*session, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &session{opt: o, exe: exe, want: map[string]string{}, stderr: stderr}
	if o.workload == "" {
		for i := range workloads {
			s.lanes = append(s.lanes, &lane{w: &workloads[i]})
		}
	} else {
		w := findWorkload(o.workload)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		l := &lane{w: w}
		if w.base != w.name {
			l.ref = &lane{w: findWorkload(w.base)}
		}
		s.lanes = append(s.lanes, l)
	}
	if o.seed == 1 && o.scale == 1 {
		if err := json.Unmarshal(fingerprintsJSON, &s.want); err != nil {
			return nil, fmt.Errorf("fingerprints.json: %w", err)
		}
	}
	if o.trace {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// base returns the lane holding the ops of l's base workload.
func (s *session) base(l *lane) *lane {
	if l.ref != nil {
		return l.ref
	}
	for _, b := range s.lanes {
		if b.w.name == l.w.base {
			return b
		}
	}
	return l
}

// measure runs cycles round-robin across the lanes until each has had its
// repetitions or its seconds: a noisy minute on a shared machine then falls
// on every workload rather than on one. A cycle is one untraced simulation
// plus, with -trace 1, one traced simulation. A lane with a reference runs
// it first: once for the fingerprint, or every cycle when the traced ratios
// want its run_s measured alongside.
func (s *session) measure(ctx context.Context) {
	for progressed := true; progressed && ctx.Err() == nil; {
		progressed = false
		for _, l := range s.lanes {
			if s.done(l) || ctx.Err() != nil {
				continue
			}
			progressed = true
			start := time.Now()
			if l.ref != nil && (l.cycles == 0 || s.opt.trace) {
				s.op(ctx, l.ref, false)
				l.ref.cycles++
			}
			s.op(ctx, l, false)
			if s.opt.trace {
				s.op(ctx, l, true)
			}
			l.cycles++
			l.lastCycle = time.Since(start)
			l.spent += l.lastCycle
		}
	}
}

func (s *session) done(l *lane) bool {
	switch {
	case l.cycles == 0:
		return false
	case s.opt.seconds > 0:
		return (l.spent + l.lastCycle).Seconds() > s.opt.seconds
	default:
		return l.cycles >= s.opt.reps
	}
}

// op runs one simulation in a child process and files its result.
func (s *session) op(ctx context.Context, l *lane, traced bool) {
	spec := opSpec{Workload: l.w.name, Seed: s.opt.seed, Scale: s.opt.scale, Rep: l.cycles, Trace: traced}
	if traced {
		spec.ProfileBase = filepath.Join(s.opt.traceDir, fmt.Sprintf("%s.%d", l.w.name, l.cycles))
	}
	res := execOp(ctx, s.exe, spec, l.w.procs)
	if ctx.Err() != nil {
		return
	}
	if res.Err == "" {
		want, ok := s.want[l.w.base]
		if !ok {
			s.want[l.w.base] = res.Fingerprint
		} else if res.Fingerprint != want {
			res.Err = fmt.Sprintf("fingerprint %s, want %s", res.Fingerprint, want)
		}
	}
	if res.Err == "" && traced {
		shares, err := cpuShares(res.Profiles)
		if err != nil {
			res.Err = err.Error()
		}
		res.CPUShare = shares
	}
	l.attempted++
	if res.Err != "" {
		l.failed++
		fmt.Fprintf(s.stderr, "benchmark: %s rep %d failed: %s\n", l.w.name, l.cycles, res.Err)
		return
	}
	if traced {
		l.traced = append(l.traced, res)
	} else {
		l.untraced = append(l.untraced, res)
	}
}

// execOp re-executes this binary as a child that performs spec and parses
// the result it prints. It returns once the child has exited.
func execOp(ctx context.Context, exe string, spec opSpec, procs int) opResult {
	res := opResult{Workload: spec.Workload, Rep: spec.Rep}
	spec.StartUnixNS = time.Now().UnixNano()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(specJSON), "GOMAXPROCS="+strconv.Itoa(procs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err == nil {
		err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	}
	if err != nil {
		res.Err = fmt.Sprintf("child: %v; stdout %q; stderr %q", err, lastBytes(out, 300), lastBytes(stderr.Bytes(), 2000))
	}
	return res
}

func lastBytes(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}
