package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// due is one value of the RunQueue reference model with its tick.
type due struct {
	at Tick
	v  int
}

// TestRunQueueMatchesSlice drives a RunQueue and a plain slice of (tick,
// value) pairs with the same random pushes, pops and run pops, at ticks
// that repeat and advance, long enough for both FIFOs to compact many
// times. The queue must hold the same values, front first, with one run
// per distinct tick in order, and Push must report exactly the pushes that
// start a tick.
func TestRunQueueMatchesSlice(t *testing.T) {
	var q RunQueue[int]
	var model []due
	r := rand.New(rand.NewPCG(3, 4))
	at, next := Tick(0), 0
	for step := 0; step < 20000; step++ {
		switch op := r.IntN(10); {
		case len(model) == 0 || op < 5:
			at += Tick(r.IntN(3)) // repeats the tick a third of the time
			started := len(model) == 0 || model[len(model)-1].at != at
			if got := q.Push(at, next); got != started {
				t.Fatalf("step %d: Push at %d reported a new run %v, want %v", step, at, got, started)
			}
			model = append(model, due{at, next})
			next++
		case op < 9:
			if v := q.Pop(); v != model[0].v {
				t.Fatalf("step %d: popped %d, want %d", step, v, model[0].v)
			}
			model = model[1:]
		default:
			n := 1
			for n < len(model) && model[n].at == model[0].at {
				n++
			}
			got := q.PopRun([]int{-1})
			if len(got) != n+1 || got[0] != -1 {
				t.Fatalf("step %d: PopRun appended %v, want the %d values of the front run", step, got[1:], n)
			}
			for i, v := range got[1:] {
				if v != model[i].v {
					t.Fatalf("step %d: PopRun value %d is %d, want %d", step, i, v, model[i].v)
				}
			}
			model = model[n:]
		}
		checkRuns(t, step, &q, model)
	}
	q.Clear()
	checkRuns(t, -1, &q, nil)
	q.Push(5, 1)
	q.Push(5, 2)
	checkRuns(t, -1, &q, []due{{5, 1}, {5, 2}})
}

// checkRuns requires q to hold model's values, front first, in one run per
// distinct tick.
func checkRuns(t *testing.T, step int, q *RunQueue[int], model []due) {
	t.Helper()
	runs, vals := q.Live()
	var want []due
	for _, r := range runs {
		if r.N <= 0 {
			t.Fatalf("step %d: run at %d holds %d values", step, r.At, r.N)
		}
		if len(want) > 0 && want[len(want)-1].at >= r.At {
			t.Fatalf("step %d: run at %d follows one at %d", step, r.At, want[len(want)-1].at)
		}
		for range r.N {
			if len(vals) == 0 {
				t.Fatalf("step %d: runs count more values than the queue holds", step)
			}
			want = append(want, due{r.At, vals[0]})
			vals = vals[1:]
		}
	}
	if len(vals) != 0 || !slices.Equal(want, model) || q.Len() != len(model) {
		t.Fatalf("step %d: queue holds %v (%d), want %v", step, want, q.Len(), model)
	}
	at, ok := q.Next()
	if ok != (len(model) > 0) || ok && at != model[0].at {
		t.Fatalf("step %d: Next = %d, %v with %v queued", step, at, ok, model)
	}
}

// TestRunQueueRejectsEarlierTick: values are due at non-decreasing ticks,
// so one due before the last is a model error.
func TestRunQueueRejectsEarlierTick(t *testing.T) {
	var q RunQueue[int]
	q.Push(10, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("a value due before the last one was queued")
		}
	}()
	q.Push(9, 1)
}
