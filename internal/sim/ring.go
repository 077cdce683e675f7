package sim

// Ring is an unbounded FIFO on a circular buffer: Pop advances a head
// index instead of re-slicing, so a queue that keeps sliding reuses its
// storage and only grows when it holds more values than ever before. The
// zero value is an empty ring.
type Ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued values.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Front returns the value at the head without removing it. Panics if the
// ring is empty.
func (r *Ring[T]) Front() T {
	if r.n == 0 {
		panic("sim: Front of an empty Ring")
	}
	return r.buf[r.head]
}

// Pop removes and returns the value at the head. Panics if the ring is
// empty.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop of an empty Ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop the reference the vacated slot holds
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the buffer, unwrapping the queued values to its start.
func (r *Ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), 4))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
