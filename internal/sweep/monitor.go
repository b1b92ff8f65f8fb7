package sweep

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"supersim/internal/taskrun"
	"supersim/internal/telemetry"
)

// Monitor is a taskrun.Probe that aggregates a sweep's task lifecycle into
// fleet-level metrics and serves them live: a /sweep JSON progress document
// (counts, per-resource utilization, progress and ETA) and a Prometheus
// /metrics exposition of the sweep_* series, on the same HTTP machinery the
// per-run telemetry server uses. Attach it to a sweep as its Probe —
// typically combined with a Journal via taskrun.Probes.
//
// Probe callbacks run under the runner's scheduler lock; the HTTP handlers
// scrape concurrently, so the monitor's own state is mutex-guarded and the
// registry values are atomics.
type Monitor struct {
	clock taskrun.Clock
	reg   *telemetry.Registry

	mu        sync.Mutex
	start     time.Time
	started   bool
	total     int
	running   int
	finished  map[taskrun.State]int
	capacity  map[string]int
	busy      map[string]int
	taskRes   map[string]map[string]int
	readyAt   map[string]time.Time
	startedAt map[string]time.Time

	cTotal    *telemetry.Counter
	cByState  map[taskrun.State]*telemetry.Counter
	gRunning  *telemetry.Gauge
	gPending  *telemetry.Gauge
	hWait     *telemetry.Histogram
	hRun      *telemetry.Histogram
	gResBusy  map[string]*telemetry.Gauge
	gResTotal map[string]*telemetry.Gauge
}

// NewMonitor creates a monitor stamping durations with clock (nil means
// taskrun.WallClock). The sweep_* metrics are registered eagerly so the
// Prometheus exposition is complete before the first task event.
func NewMonitor(clock taskrun.Clock) *Monitor {
	if clock == nil {
		clock = taskrun.WallClock()
	}
	reg := telemetry.NewRegistry()
	m := &Monitor{
		clock:     clock,
		reg:       reg,
		finished:  map[taskrun.State]int{},
		busy:      map[string]int{},
		taskRes:   map[string]map[string]int{},
		readyAt:   map[string]time.Time{},
		startedAt: map[string]time.Time{},
		cTotal:    reg.Counter("sweep_tasks_total", "sweep", -1, 0),
		cByState: map[taskrun.State]*telemetry.Counter{
			taskrun.Succeeded: reg.Counter("sweep_tasks_done", "succeeded", -1, 0),
			taskrun.Failed:    reg.Counter("sweep_tasks_done", "failed", -1, 0),
			taskrun.Skipped:   reg.Counter("sweep_tasks_done", "skipped", -1, 0),
			taskrun.Canceled:  reg.Counter("sweep_tasks_done", "canceled", -1, 0),
		},
		gRunning:  reg.Gauge("sweep_tasks_running", "sweep", -1),
		gPending:  reg.Gauge("sweep_tasks_pending", "sweep", -1),
		hWait:     reg.Histogram("sweep_task_wait_ms", "sweep", -1),
		hRun:      reg.Histogram("sweep_task_run_ms", "sweep", -1),
		gResBusy:  map[string]*telemetry.Gauge{},
		gResTotal: map[string]*telemetry.Gauge{},
	}
	return m
}

// Registry exposes the monitor's metric registry (the sweep_* series), e.g.
// to merge its Prometheus exposition into another scrape surface.
func (m *Monitor) Registry() *telemetry.Registry { return m.reg }

// RunStarted implements taskrun.Probe.
func (m *Monitor) RunStarted(capacity map[string]int, tasks int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.start = m.clock()
	m.started = true
	m.capacity = capacity
	for res, cap := range capacity {
		m.gResBusy[res] = m.reg.Gauge("sweep_resource_busy", res, -1)
		m.gResTotal[res] = m.reg.Gauge("sweep_resource_capacity", res, -1)
		m.gResTotal[res].Set(int64(cap))
	}
}

// TaskQueued implements taskrun.Probe.
func (m *Monitor) TaskQueued(task string, resources map[string]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total++
	m.cTotal.Inc()
	m.gPending.Add(1)
	if len(resources) > 0 {
		m.taskRes[task] = resources
	}
}

// TaskReady implements taskrun.Probe.
func (m *Monitor) TaskReady(task string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readyAt[task] = m.clock()
}

// TaskBlocked implements taskrun.Probe. Blocking shows up in the wait
// histogram and the busy/capacity gauges; no extra state is needed here.
func (m *Monitor) TaskBlocked(task, resource string, need, avail int) {}

// TaskStarted implements taskrun.Probe.
func (m *Monitor) TaskStarted(task string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock()
	m.startedAt[task] = now
	m.running++
	m.gRunning.Add(1)
	m.gPending.Add(-1)
	m.trackResources(m.taskRes[task], 1)
	if ready, ok := m.readyAt[task]; ok {
		m.hWait.Observe(uint64(now.Sub(ready).Milliseconds()))
	}
}

// TaskFinished implements taskrun.Probe.
func (m *Monitor) TaskFinished(task string, state taskrun.State, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock()
	m.finished[state]++
	if c := m.cByState[state]; c != nil {
		c.Inc()
	}
	if startedAt, ok := m.startedAt[task]; ok {
		m.hRun.Observe(uint64(now.Sub(startedAt).Milliseconds()))
		m.running--
		m.gRunning.Add(-1)
		m.trackResources(m.taskRes[task], -1)
		delete(m.startedAt, task)
	} else {
		// Skipped and canceled tasks never started: they leave pending.
		m.gPending.Add(-1)
	}
}

// RunFinished implements taskrun.Probe.
func (m *Monitor) RunFinished() {}

// trackResources adjusts the per-resource busy gauges. Caller holds m.mu.
func (m *Monitor) trackResources(resources map[string]int, sign int) {
	for res, amt := range resources {
		m.busy[res] += sign * amt
		if g := m.gResBusy[res]; g != nil {
			g.Set(int64(m.busy[res]))
		}
	}
}

// ResourceDoc is one resource pool's live state in the /sweep document.
type ResourceDoc struct {
	Busy     int `json:"busy"`
	Capacity int `json:"capacity"`
}

// Doc is the /sweep JSON progress document.
type Doc struct {
	Tasks struct {
		Total     int `json:"total"`
		Pending   int `json:"pending"`
		Running   int `json:"running"`
		Succeeded int `json:"succeeded"`
		Failed    int `json:"failed"`
		Skipped   int `json:"skipped"`
		Canceled  int `json:"canceled"`
	} `json:"tasks"`
	Resources  map[string]ResourceDoc `json:"resources"`
	ElapsedSec float64                `json:"elapsed_sec"`
	EtaSec     float64                `json:"eta_sec"`
	DoneFrac   float64                `json:"done_frac"`
}

// Doc snapshots the sweep's progress: task counts by state, per-resource
// occupancy, elapsed wall time, the completed fraction, and a simple
// rate-based ETA (elapsed scaled by the remaining fraction; 0 until the
// first task finishes).
func (m *Monitor) Doc() Doc {
	m.mu.Lock()
	defer m.mu.Unlock()
	var d Doc
	done := 0
	for _, n := range m.finished {
		done += n
	}
	d.Tasks.Total = m.total
	d.Tasks.Running = m.running
	d.Tasks.Pending = m.total - m.running - done
	d.Tasks.Succeeded = m.finished[taskrun.Succeeded]
	d.Tasks.Failed = m.finished[taskrun.Failed]
	d.Tasks.Skipped = m.finished[taskrun.Skipped]
	d.Tasks.Canceled = m.finished[taskrun.Canceled]
	d.Resources = map[string]ResourceDoc{}
	for res, cap := range m.capacity {
		d.Resources[res] = ResourceDoc{Busy: m.busy[res], Capacity: cap}
	}
	if m.started {
		d.ElapsedSec = m.clock().Sub(m.start).Seconds()
	}
	if m.total > 0 {
		d.DoneFrac = float64(done) / float64(m.total)
	}
	if done > 0 && done < m.total {
		d.EtaSec = d.ElapsedSec / float64(done) * float64(m.total-done)
	}
	return d
}

// Handler returns the live sweep-dashboard HTTP handler:
//
//	/            JSON sweep-progress document (also at /sweep)
//	/metrics     Prometheus text exposition of the sweep_* registry
//
// All routes are read-only and safe to scrape while the sweep runs.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	doc := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.Doc())
	}
	mux.HandleFunc("/{$}", doc)
	mux.HandleFunc("/sweep", doc)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.reg.WritePrometheus(w)
	})
	return mux
}

// Serve starts an HTTP server on addr serving Handler in a background
// goroutine and returns immediately; errors are reported through errFn when
// non-nil — the same contract as Telemetry.Serve.
func (m *Monitor) Serve(addr string, errFn func(error)) {
	srv := &http.Server{Addr: addr, Handler: m.Handler()}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			if errFn != nil {
				errFn(err)
			}
		}
	}()
}
