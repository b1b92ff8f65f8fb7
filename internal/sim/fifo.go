package sim

// FIFO is a first-in first-out queue on one slice and a head index: Pop
// advances the head instead of re-slicing, so the slice's capacity is
// reused for the whole run and a warm queue never allocates. The consumed
// prefix is dropped when the queue drains and compacted away once it is at
// least half of a non-trivial buffer, which keeps Pop O(1) amortized
// without unbounded growth. Model components build their delay lines,
// arrival lines and injection queues on it, and the event queue keeps its
// pending timestamps in one, in order.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) { q.buf = append(q.buf, v) }

// Front returns the value at the front; the queue must not be empty.
func (q *FIFO[T]) Front() *T { return &q.buf[q.head] }

// Back returns the value at the back; the queue must not be empty.
func (q *FIFO[T]) Back() *T { return &q.buf[len(q.buf)-1] }

// Pop removes and returns the value at the front; the queue must not be
// empty. The vacated slot is zeroed so it holds no pointer.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}

// Insert puts v at index i of Live(), moving the values from i on back by
// one; 0 <= i <= Len().
func (q *FIFO[T]) Insert(i int, v T) {
	var zero T
	q.buf = append(q.buf, zero)
	live := q.buf[q.head:]
	copy(live[i+1:], live[i:])
	live[i] = v
}

// Live returns the queued values, front first. It aliases the queue: a
// checkpoint walk reads or fills it in place, and no consumed prefix is in
// it, so the bytes do not depend on compaction history.
func (q *FIFO[T]) Live() []T { return q.buf[q.head:] }

// Reset replaces the queue's contents with live, front first; a loading
// checkpoint walk hands back what Live returned, resized.
func (q *FIFO[T]) Reset(live []T) { q.buf, q.head = live, 0 }
