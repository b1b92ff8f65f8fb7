package sim

import "fmt"

// RunQueue is a FIFO of values due at non-decreasing ticks, kept in runs:
// the values are one FIFO and the runs, a tick and how many values are due
// at it, another, so a tick is stored once per run of values, not once per
// value. Channels' arrival lanes and routers' delay lines are built on it;
// each keeps its own event policy.
type RunQueue[T any] struct {
	runs FIFO[Run]
	vals FIFO[T]
}

// Run is the next N values of a RunQueue, all due at tick At.
type Run struct {
	At Tick
	N  int
}

// Len returns the number of queued values.
func (q *RunQueue[T]) Len() int { return q.vals.Len() }

// Push appends v, due at tick at, and reports whether it starts a run:
// whether nothing was due at that tick yet. A tick before the last value's
// is a model error, and Push panics on it.
func (q *RunQueue[T]) Push(at Tick, v T) bool {
	q.vals.Push(v)
	if q.runs.Len() > 0 {
		if r := q.runs.Back(); r.At == at {
			r.N++
			return false
		} else if r.At > at {
			panic(fmt.Sprintf("sim: value due at %d queued behind one due at %d", at, r.At))
		}
	}
	q.runs.Push(Run{at, 1})
	return true
}

// Next returns the tick the front value is due at; ok is false when the
// queue is empty.
func (q *RunQueue[T]) Next() (at Tick, ok bool) {
	if q.runs.Len() == 0 {
		return 0, false
	}
	return q.runs.Front().At, true
}

// Pop removes and returns the front value; the queue must not be empty.
func (q *RunQueue[T]) Pop() T {
	if r := q.runs.Front(); r.N > 1 {
		r.N--
	} else {
		q.runs.Pop()
	}
	return q.vals.Pop()
}

// PopRun removes the front run and appends its values to dst; the queue
// must not be empty.
func (q *RunQueue[T]) PopRun(dst []T) []T {
	for n := q.runs.Pop().N; n > 0; n-- {
		dst = append(dst, q.vals.Pop())
	}
	return dst
}

// Live returns the queued runs and values, front first: run i's values
// follow run i-1's in the values. Both alias the queue, as FIFO.Live does.
func (q *RunQueue[T]) Live() ([]Run, []T) { return q.runs.Live(), q.vals.Live() }

// Clear empties the queue and keeps its storage; a loading checkpoint walk
// refills it with Push.
func (q *RunQueue[T]) Clear() {
	q.runs.Reset(q.runs.Live()[:0])
	q.vals.Reset(q.vals.Live()[:0])
}
