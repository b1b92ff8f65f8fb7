// Package taskrun is a task scheduling and management engine: it runs tasks
// with dependencies, conditional execution and resource management —
// mirroring the TaskRun tool of the original ecosystem. A sweep of thousands
// of simulations, parses, analyses and plots declares each step as a task
// with its dependencies and resource demands, and the runner executes
// everything in a correct order without resource conflicts.
package taskrun

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// State describes a task's lifecycle.
type State int

// Task states.
const (
	Pending State = iota
	Running
	Succeeded
	Failed   // action returned an error
	Skipped  // condition returned false: treated as success (work not needed)
	Canceled // a dependency failed or was canceled
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	case Skipped:
		return "skipped"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Task is one unit of work.
type Task struct {
	name      string
	action    func() error
	deps      []*Task
	resources map[string]int
	condition func() bool

	state State
	err   error

	// Scheduler-side observation state: ready has been reported to the
	// probe; blockedOn is the bottleneck resource last reported (empty when
	// not blocked), so blocked events fire per transition, not per scan.
	readyObserved bool
	blockedOn     string
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// State returns the task's final state after Run.
func (t *Task) State() State { return t.state }

// Err returns the action's error, if the task failed.
func (t *Task) Err() error { return t.err }

// After declares dependencies: t runs only after all deps succeed (or are
// condition-skipped). If any dependency fails, t is canceled.
func (t *Task) After(deps ...*Task) *Task {
	t.deps = append(t.deps, deps...)
	return t
}

// Require declares a resource demand. The runner never lets concurrent
// demands for a resource exceed its capacity.
func (t *Task) Require(resource string, amount int) *Task {
	if amount <= 0 {
		panic("taskrun: resource amount must be positive")
	}
	t.resources[resource] = amount
	return t
}

// OnlyIf attaches a conditional execution predicate, evaluated when the task
// becomes ready. A false result skips the task's action — the usual caching
// idiom ("output already exists") — and dependents still run.
func (t *Task) OnlyIf(cond func() bool) *Task {
	t.condition = cond
	return t
}

// Runner owns a task set and its resource pool.
type Runner struct {
	capacity map[string]int
	tasks    []*Task
	byName   map[string]*Task
	probe    Probe
}

// NewRunner creates a runner with the given resource capacities, e.g.
// {"cpu": 4, "mem_gb": 16}. Tasks demanding more of a resource than its
// capacity are rejected at Add time.
func NewRunner(capacity map[string]int) *Runner {
	cp := make(map[string]int, len(capacity))
	for k, v := range capacity {
		if v <= 0 {
			panic("taskrun: resource capacity must be positive")
		}
		cp[k] = v
	}
	return &Runner{capacity: cp, byName: map[string]*Task{}}
}

// Task registers a new task. Names must be unique.
func (r *Runner) Task(name string, action func() error) *Task {
	if action == nil {
		panic("taskrun: task action required")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("taskrun: duplicate task name %q", name))
	}
	t := &Task{name: name, action: action, resources: map[string]int{}}
	r.tasks = append(r.tasks, t)
	r.byName[name] = t
	return t
}

// Tasks returns all registered tasks.
func (r *Runner) Tasks() []*Task { return r.tasks }

// SetProbe attaches a task-lifecycle probe (a Journal, the sweep monitor, or
// several combined via Probes). nil disables observation; the runner
// nil-guards every call. Must be set before Run.
func (r *Runner) SetProbe(p Probe) { r.probe = p }

// sortedResources returns m's resource names in sorted order so every
// iteration over a resource map is deterministic — journal goldens and
// blocked-resource attribution depend on it.
func sortedResources(m map[string]int) []string {
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run executes the task graph: every task runs after its dependencies, the
// resource pool is never oversubscribed, and independent tasks run
// concurrently. It returns an error if any task failed, was skipped, or if
// the graph has a dependency cycle.
func (r *Runner) Run() error {
	for _, t := range r.tasks {
		for _, res := range sortedResources(t.resources) {
			amt := t.resources[res]
			cap, ok := r.capacity[res]
			if !ok {
				return fmt.Errorf("taskrun: task %q requires unknown resource %q", t.name, res)
			}
			if amt > cap {
				return fmt.Errorf("taskrun: task %q requires %d of %q, capacity is %d",
					t.name, amt, res, cap)
			}
		}
	}
	if r.probe != nil {
		r.probe.RunStarted(r.capacity, len(r.tasks))
	}
	for _, t := range r.tasks {
		if r.probe != nil {
			r.probe.TaskQueued(t.name, t.resources)
		}
	}
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		available = map[string]int{}
		running   = 0
	)
	for k, v := range r.capacity {
		available[k] = v
	}

	depsDone := func(t *Task) (ready bool, cancel bool) {
		for _, d := range t.deps {
			switch d.state {
			case Succeeded, Skipped:
			case Failed, Canceled:
				return false, true
			default:
				return false, false
			}
		}
		return true, false
	}
	fits := func(t *Task) bool {
		for _, res := range sortedResources(t.resources) {
			if available[res] < t.resources[res] {
				return false
			}
		}
		return true
	}
	// bottleneck names the first insufficient resource in sorted order — the
	// blocked-on attribution the probe reports.
	bottleneck := func(t *Task) (res string, need, avail int) {
		for _, res := range sortedResources(t.resources) {
			if need := t.resources[res]; available[res] < need {
				return res, need, available[res]
			}
		}
		return "", 0, 0
	}

	mu.Lock()
	for {
		launched := false
		pending := 0
		for _, t := range r.tasks {
			if t.state != Pending {
				continue
			}
			pending++
			ready, cancel := depsDone(t)
			if cancel {
				t.state = Canceled
				pending--
				launched = true // state changed; rescan
				if r.probe != nil {
					r.probe.TaskFinished(t.name, Canceled, nil)
				}
				continue
			}
			if !ready {
				continue
			}
			if !t.readyObserved {
				t.readyObserved = true
				if r.probe != nil {
					r.probe.TaskReady(t.name)
				}
			}
			if !fits(t) {
				if r.probe != nil {
					if res, need, avail := bottleneck(t); res != t.blockedOn {
						t.blockedOn = res
						r.probe.TaskBlocked(t.name, res, need, avail)
					}
				}
				continue
			}
			if t.condition != nil && !t.condition() {
				t.state = Skipped
				pending--
				launched = true
				if r.probe != nil {
					r.probe.TaskFinished(t.name, Skipped, nil)
				}
				continue
			}
			for _, res := range sortedResources(t.resources) {
				available[res] -= t.resources[res]
			}
			t.state = Running
			t.blockedOn = ""
			running++
			launched = true
			if r.probe != nil {
				r.probe.TaskStarted(t.name)
			}
			go func(t *Task) {
				err := t.action()
				mu.Lock()
				if err != nil {
					t.state = Failed
					t.err = err
				} else {
					t.state = Succeeded
				}
				if r.probe != nil {
					r.probe.TaskFinished(t.name, t.state, err)
				}
				for _, res := range sortedResources(t.resources) {
					available[res] += t.resources[res]
				}
				running--
				cond.Broadcast()
				mu.Unlock()
			}(t)
		}
		if pending == 0 && running == 0 {
			break
		}
		if !launched {
			if running == 0 {
				// Nothing running and nothing launchable: dependency cycle.
				mu.Unlock()
				return fmt.Errorf("taskrun: dependency cycle among pending tasks %v", r.pendingNames())
			}
			cond.Wait()
		}
	}
	mu.Unlock()
	if r.probe != nil {
		r.probe.RunFinished()
	}

	var errs []error
	for _, t := range r.tasks {
		switch t.state {
		case Failed:
			errs = append(errs, fmt.Errorf("task %q: %w", t.name, t.err))
		case Canceled:
			errs = append(errs, fmt.Errorf("task %q canceled by failed dependency", t.name))
		}
	}
	return errors.Join(errs...)
}

func (r *Runner) pendingNames() []string {
	var out []string
	for _, t := range r.tasks {
		if t.state == Pending {
			out = append(out, t.name)
		}
	}
	sort.Strings(out)
	return out
}
