package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestFIFOMatchesSlice drives a FIFO and a plain slice with the same random
// pushes, inserts and pops, long enough to compact many times, and requires
// the same contents throughout; a drained FIFO starts its buffer over.
func TestFIFOMatchesSlice(t *testing.T) {
	var q FIFO[int]
	var model []int
	r := rand.New(rand.NewPCG(1, 2))
	next := 0
	for step := 0; step < 20000; step++ {
		switch op := r.IntN(10); {
		case op == 0:
			i := r.IntN(len(model) + 1)
			q.Insert(i, next)
			model = slices.Insert(model, i, next)
			next++
		case len(model) == 0 || op < 5:
			q.Push(next)
			model = append(model, next)
			next++
			if *q.Back() != model[len(model)-1] {
				t.Fatalf("step %d: back %d, want %d", step, *q.Back(), model[len(model)-1])
			}
		default:
			if *q.Front() != model[0] {
				t.Fatalf("step %d: front %d, want %d", step, *q.Front(), model[0])
			}
			if v := q.Pop(); v != model[0] {
				t.Fatalf("step %d: popped %d, want %d", step, v, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) || !slices.Equal(q.Live(), model) {
			t.Fatalf("step %d: contents %v, want %v", step, q.Live(), model)
		}
		if q.head > 64 && 2*q.head > len(q.buf) {
			t.Fatalf("step %d: consumed prefix %d of %d not compacted", step, q.head, len(q.buf))
		}
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained FIFO keeps head %d, len %d", q.head, len(q.buf))
	}
	q.Reset([]int{7, 8})
	if q.Len() != 2 || q.Pop() != 7 || *q.Front() != 8 {
		t.Fatal("Reset did not replace the contents")
	}
}
