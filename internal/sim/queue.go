package sim

// Queue is an unbounded FIFO of values with blocking receive, the
// simulation analogue of a Go channel: message rings, request queues,
// completion queues. Senders never block; receivers block until a value
// arrives. Multiple receivers, processes in Get and callbacks in GetOr
// alike, are served in the order they started waiting.
type Queue[T any] struct {
	s       *Scheduler
	name    string
	items   Ring[T]
	waiters Ring[waiter]
	puts    uint64
}

// NewQueue creates an empty queue.
func NewQueue[T any](s *Scheduler, name string) *Queue[T] {
	return &Queue[T]{s: s, name: name}
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Puts returns the total number of values ever enqueued.
func (q *Queue[T]) Puts() uint64 { return q.puts }

// Put enqueues v and, if a receiver is waiting, schedules it to run at
// the current instant. Put may be called from a process or from a plain
// event callback.
func (q *Queue[T]) Put(v T) {
	q.items.Push(v)
	q.puts++
	if q.waiters.Len() > 0 {
		q.s.resume(q.waiters.Pop())
	}
}

// Get dequeues the next value, blocking p until one is available.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.Len() == 0 {
		q.waiters.Push(waiter{p: p})
		p.block()
	}
	return q.take()
}

// GetOr is the callback twin of Get, for a caller with no process: it
// dequeues the next value if one is queued. Otherwise it queues fn as a
// receiver, in line with blocked processes, and reports false; fn runs
// at the instant a Put hands it a value and calls GetOr again, as a
// woken process retries Get.
func (q *Queue[T]) GetOr(fn func()) (v T, ok bool) {
	if q.items.Len() == 0 {
		q.waiters.Push(waiter{fn: fn})
		return v, false
	}
	return q.take(), true
}

// take dequeues the head value. If more values remain and more receivers
// wait, it passes the baton, so a burst of Puts wakes every eligible
// receiver.
func (q *Queue[T]) take() T {
	v := q.items.Pop()
	if q.items.Len() > 0 && q.waiters.Len() > 0 {
		q.s.resume(q.waiters.Pop())
	}
	return v
}

// Signal is a one-shot completion: one or more parties wait, one event
// fires, all waiters resume. Used for I/O completions and futures. The
// waiters are processes in Wait and callbacks in Then alike, resumed in
// the order they started waiting. The first waiter is held inline, so a
// signal with one waiter allocates nothing to wait on, and Reset re-arms
// a fired signal, so its owner can keep one for the next completion
// instead of making a new one.
type Signal struct {
	s     *Scheduler
	fired bool
	first waiter
	more  []waiter // waiters after the first, in arrival order
}

// NewSignal creates an unfired signal.
func NewSignal(s *Scheduler) *Signal { return &Signal{s: s} }

// Fired reports whether the signal has fired.
func (g *Signal) Fired() bool { return g.fired }

// Fire releases all current and future waiters, each through its own
// same-instant event. Firing twice is a no-op.
func (g *Signal) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	if !g.first.none() {
		g.s.resume(g.first)
	}
	for i, w := range g.more {
		g.s.resume(w)
		g.more[i] = waiter{}
	}
	g.first, g.more = waiter{}, g.more[:0]
}

// Reset re-arms a fired signal: it is unfired again, with no waiters,
// and its next Wait blocks until its next Fire. Every waiter of the
// earlier firing already has its wake posted, so reuse changes no event:
// a reset signal posts the same wakes at the same (at, seq) places as a
// fresh one would. Resetting an unfired signal panics, since its waiters
// would never wake.
func (g *Signal) Reset() {
	if !g.fired {
		panic("sim: Reset of an unfired Signal")
	}
	g.fired = false
}

// Wait blocks p until the signal fires (returns immediately if it already
// has).
func (g *Signal) Wait(p *Proc) {
	if g.fired {
		return
	}
	g.add(waiter{p: p})
	p.block()
}

// Then is the callback twin of Wait, for a caller with no process: it
// reports true if the signal has fired, and the caller carries on
// itself. Otherwise it queues k in line with blocked processes and
// reports false; Fire then calls k through a same-instant event, where a
// waiting process would have been woken.
func (g *Signal) Then(k func()) bool {
	if g.fired {
		return true
	}
	g.add(waiter{fn: k})
	return false
}

func (g *Signal) add(w waiter) {
	if g.first.none() {
		g.first = w
	} else {
		g.more = append(g.more, w)
	}
}

// Future is a Signal carrying a value.
type Future[T any] struct {
	Signal
	value T
}

// NewFuture creates an unresolved future.
func NewFuture[T any](s *Scheduler) *Future[T] {
	return &Future[T]{Signal: Signal{s: s}}
}

// Resolve sets the value and fires the signal.
func (f *Future[T]) Resolve(v T) {
	if f.fired {
		return
	}
	f.value = v
	f.Fire()
}

// Value blocks until resolved and returns the value.
func (f *Future[T]) Value(p *Proc) T {
	f.Wait(p)
	return f.value
}
