package taskrun

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Task journal schema: the first line of a task journal (JSONL) names the
// schema and its version so readers (ssparse -tasks, ssplot -plot taskgantt,
// the sweep monitor) can reject streams written by an incompatible runner.
// Bump JournalSchemaVersion on any incompatible event change.
const (
	JournalSchema        = "supersim-tasks"
	JournalSchemaVersion = 1
)

// Probe observes the lifecycle of every task a Runner executes: the fleet-
// level counterpart of the telemetry probes one layer down. Constructors hand
// the runner a probe via SetProbe; a nil probe means observation is disabled
// and every call site nil-guards (Probe is an interface, so unlike the
// telemetry and verify probe types it cannot make its own methods nil-safe;
// the Runner has this one probe field, so there is no wrong guard to pick).
//
// The runner invokes all methods serially under its scheduler lock, in a
// deterministic order when the run itself is deterministic (capacity-1 pools
// fully serialize execution). Implementations must not call back into the
// runner and must treat map arguments as read-only.
type Probe interface {
	// RunStarted fires once before any task event, with the resource pool
	// capacities and the number of registered tasks.
	RunStarted(capacity map[string]int, tasks int)
	// TaskQueued fires for every registered task, in registration order,
	// with its resource demands.
	TaskQueued(task string, resources map[string]int)
	// TaskReady fires once when a task's dependencies have all resolved.
	TaskReady(task string)
	// TaskBlocked fires when a ready task cannot start because a resource is
	// exhausted — once per bottleneck transition, not per scheduler pass —
	// naming the first insufficient resource in sorted order.
	TaskBlocked(task, resource string, need, avail int)
	// TaskStarted fires when the task's action is launched.
	TaskStarted(task string)
	// TaskFinished fires exactly once per task that leaves the Pending or
	// Running state: Succeeded, Failed (with the action's error), Skipped
	// (condition said no) or Canceled (a dependency failed).
	TaskFinished(task string, state State, err error)
	// RunFinished fires once after the last task event of a completed run.
	RunFinished()
}

// Probes combines probes into one fan-out probe: nil entries are dropped, a
// single survivor is returned unwrapped, and no survivors yield nil — so the
// result plugs into SetProbe without re-checking.
func Probes(ps ...Probe) Probe {
	var list multiProbe
	for _, p := range ps {
		if p != nil {
			list = append(list, p)
		}
	}
	switch len(list) {
	case 0:
		return nil
	case 1:
		return list[0]
	}
	return list
}

// multiProbe is Probes' fan-out; it holds no nil probe.
type multiProbe []Probe

func (m multiProbe) RunStarted(capacity map[string]int, tasks int) {
	for _, p := range m {
		p.RunStarted(capacity, tasks)
	}
}

func (m multiProbe) TaskQueued(task string, resources map[string]int) {
	for _, p := range m {
		p.TaskQueued(task, resources)
	}
}

func (m multiProbe) TaskReady(task string) {
	for _, p := range m {
		p.TaskReady(task)
	}
}

func (m multiProbe) TaskBlocked(task, resource string, need, avail int) {
	for _, p := range m {
		p.TaskBlocked(task, resource, need, avail)
	}
}

func (m multiProbe) TaskStarted(task string) {
	for _, p := range m {
		p.TaskStarted(task)
	}
}

func (m multiProbe) TaskFinished(task string, state State, err error) {
	for _, p := range m {
		p.TaskFinished(task, state, err)
	}
}

func (m multiProbe) RunFinished() {
	for _, p := range m {
		p.RunFinished()
	}
}

// JournalHeader is the first line of a task journal.
type JournalHeader struct {
	Schema   string         `json:"schema"`
	Version  int            `json:"version"`
	Start    string         `json:"start"` // journal epoch, RFC3339Nano (wall time under WallClock)
	Capacity map[string]int `json:"capacity,omitempty"`
	Tasks    int            `json:"tasks,omitempty"`
}

// JournalEvent is one task-lifecycle line of a task journal. Ev is one of
// queued, ready, blocked, started, finished, done; fields beyond T/Ev/Task
// are event-specific and zero values are omitted (a started event with
// wait_ms absent started the instant it became ready).
type JournalEvent struct {
	T    int64  `json:"t"` // milliseconds since JournalHeader.Start
	Ev   string `json:"ev"`
	Task string `json:"task,omitempty"`

	// queued
	Res map[string]int `json:"res,omitempty"`

	// blocked: the bottleneck resource, the task's demand and what was free.
	Resource string `json:"resource,omitempty"`
	Need     int    `json:"need,omitempty"`
	Avail    int    `json:"avail,omitempty"`

	// started: time from ready to started, and the tail of it spent blocked
	// on an exhausted resource.
	WaitMS    int64 `json:"wait_ms,omitempty"`
	BlockedMS int64 `json:"blocked_ms,omitempty"`

	// finished
	State string `json:"state,omitempty"`
	RunMS int64  `json:"run_ms,omitempty"`
	Err   string `json:"err,omitempty"`

	// done: final per-state counts and total wall time of the run.
	Succeeded int   `json:"succeeded,omitempty"`
	Failed    int   `json:"failed,omitempty"`
	Skipped   int   `json:"skipped,omitempty"`
	Canceled  int   `json:"canceled,omitempty"`
	WallMS    int64 `json:"wall_ms,omitempty"`
}

// journalTimes tracks one task's observed lifecycle timestamps so durations
// can be attributed without the runner passing clocks around.
type journalTimes struct {
	ready     time.Time
	blockedAt time.Time
	started   time.Time
	blocked   bool
}

// Journal is a Probe that streams task-lifecycle events as JSONL: a header
// line naming the schema, then one line per event, timestamped in
// milliseconds since the journal's start by an injectable Clock. Events are
// written as they happen, so the stream is live-tailable while a sweep runs.
//
// Write errors are sticky and reported by Err; the journal stays usable (and
// silent) after the first failure so a full disk cannot wedge a sweep.
type Journal struct {
	w      io.Writer
	clock  Clock
	enc    *json.Encoder
	start  time.Time
	opened bool
	err    error
	tasks  map[string]*journalTimes
	counts [Canceled + 1]int
}

// NewJournal creates a journal writing to w, stamping events with clock
// (nil means WallClock). The caller owns w and closes it after the run.
func NewJournal(w io.Writer, clock Clock) *Journal {
	if clock == nil {
		clock = WallClock()
	}
	return &Journal{w: w, clock: clock, enc: json.NewEncoder(w), tasks: map[string]*journalTimes{}}
}

// Err returns the first write error, if any.
func (j *Journal) Err() error { return j.err }

func (j *Journal) write(v any) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(v)
}

func (j *Journal) now() (time.Time, int64) {
	t := j.clock()
	return t, t.Sub(j.start).Milliseconds()
}

func (j *Journal) times(task string) *journalTimes {
	tt := j.tasks[task]
	if tt == nil {
		tt = &journalTimes{}
		j.tasks[task] = tt
	}
	return tt
}

// RunStarted implements Probe. It writes the header, which starts the
// journal's clock. A journal that observes several runs in turn (one per
// figure sweep under experiments -journal) keeps the first run's header, and
// each run ends in its own done line with the counts so far.
func (j *Journal) RunStarted(capacity map[string]int, tasks int) {
	if j.opened {
		return
	}
	j.opened = true
	j.start = j.clock()
	j.write(JournalHeader{
		Schema:   JournalSchema,
		Version:  JournalSchemaVersion,
		Start:    j.start.UTC().Format(time.RFC3339Nano),
		Capacity: capacity,
		Tasks:    tasks,
	})
}

// TaskQueued implements Probe.
func (j *Journal) TaskQueued(task string, resources map[string]int) {
	_, ms := j.now()
	ev := JournalEvent{T: ms, Ev: "queued", Task: task}
	if len(resources) > 0 {
		ev.Res = resources
	}
	j.write(ev)
}

// TaskReady implements Probe.
func (j *Journal) TaskReady(task string) {
	t, ms := j.now()
	tt := j.times(task)
	tt.ready = t
	j.write(JournalEvent{T: ms, Ev: "ready", Task: task})
}

// TaskBlocked implements Probe.
func (j *Journal) TaskBlocked(task, resource string, need, avail int) {
	t, ms := j.now()
	tt := j.times(task)
	if !tt.blocked {
		tt.blocked, tt.blockedAt = true, t
	}
	j.write(JournalEvent{T: ms, Ev: "blocked", Task: task, Resource: resource, Need: need, Avail: avail})
}

// TaskStarted implements Probe.
func (j *Journal) TaskStarted(task string) {
	t, ms := j.now()
	tt := j.times(task)
	tt.started = t
	// The runner reports a task ready before it starts it.
	ev := JournalEvent{T: ms, Ev: "started", Task: task, WaitMS: t.Sub(tt.ready).Milliseconds()}
	if tt.blocked {
		ev.BlockedMS = t.Sub(tt.blockedAt).Milliseconds()
		tt.blocked = false
	}
	j.write(ev)
}

// TaskFinished implements Probe.
func (j *Journal) TaskFinished(task string, state State, err error) {
	t, ms := j.now()
	if state >= 0 && int(state) < len(j.counts) {
		j.counts[state]++
	}
	ev := JournalEvent{T: ms, Ev: "finished", Task: task, State: state.String()}
	if tt := j.tasks[task]; tt != nil && !tt.started.IsZero() {
		ev.RunMS = t.Sub(tt.started).Milliseconds()
	}
	if err != nil {
		ev.Err = err.Error()
	}
	j.write(ev)
}

// RunFinished implements Probe.
func (j *Journal) RunFinished() {
	_, ms := j.now()
	j.write(JournalEvent{
		T: ms, Ev: "done",
		Succeeded: j.counts[Succeeded],
		Failed:    j.counts[Failed],
		Skipped:   j.counts[Skipped],
		Canceled:  j.counts[Canceled],
		WallMS:    ms,
	})
}

// ReadJournal parses a task journal: it validates the header line (schema
// name and version) and returns the header and every event. A stream written
// by an incompatible schema version is rejected up front.
func ReadJournal(r io.Reader) (JournalHeader, []JournalEvent, error) {
	dec := json.NewDecoder(r)
	var hdr JournalHeader
	if err := dec.Decode(&hdr); err != nil {
		return hdr, nil, fmt.Errorf("taskrun: reading journal header: %w", err)
	}
	if hdr.Schema != JournalSchema {
		return hdr, nil, fmt.Errorf("taskrun: not a task journal: schema %q, want %q", hdr.Schema, JournalSchema)
	}
	if hdr.Version != JournalSchemaVersion {
		return hdr, nil, fmt.Errorf("taskrun: incompatible journal schema version %d (this reader supports %d)",
			hdr.Version, JournalSchemaVersion)
	}
	var events []JournalEvent
	for {
		var ev JournalEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return hdr, events, nil
		} else if err != nil {
			return hdr, events, fmt.Errorf("taskrun: reading journal event %d: %w", len(events)+1, err)
		}
		events = append(events, ev)
	}
}
