// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Scheduler owns a virtual clock and an event queue. Logical processes
// (Proc) are coroutines driven from the event loop: exactly one process
// runs at any instant, and control returns to the loop whenever a process
// blocks (Sleep, Resource.Acquire, Queue.Get, ...). Events with equal
// timestamps fire in the order they were posted, so a run is a pure
// function of its inputs and seeds. A Station.Wait blocks only if some
// other event is due first; otherwise it fires its own events in place,
// in the same (at, seq) order, and the process runs on.
//
// Work that never blocks need not be a process: Station.Then and
// Queue.GetOr are the callback twins of Station.Wait and Queue.Get. A
// chain of callbacks calling them posts the same events at the same
// (at, seq) points as a process calling Wait and Get would. A chain
// that reaches a point where it must really block continues on a
// process that Start runs in place, posting no event.
//
// The kernel knows nothing about networks or storage; those live in the
// packages layered above (netsim, host, nic, ...).
package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime"
)

// Time is an absolute simulated time in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Micros returns a Duration of us microseconds. Fractional microseconds are
// preserved to nanosecond resolution.
func Micros(us float64) Duration { return Duration(us * 1e3) }

// Millis returns a Duration of ms milliseconds.
func Millis(ms float64) Duration { return Duration(ms * 1e6) }

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros converts d to floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds converts t to floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// TransferTime returns the time to move n bytes at rate bytesPerSec.
// A zero or negative rate means "infinitely fast".
func TransferTime(n int64, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) * 1e9 / bytesPerSec)
}

// event is one scheduled action, held by value in the heap: a callback
// (fn), or a typed wake of p. A cancelled event stays in the heap (removal
// would disturb sibling ordering) but is skipped by the loop without
// advancing the clock.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	p      *Proc
	cancel *bool // set only on AfterCancel events
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a binary min-heap of events ordered by (at, seq). Keys are
// unique, so the pop order is the same whatever the heap's shape.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !e.before(&q[up]) {
			break
		}
		q[i] = q[up]
		i = up
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the references the vacated slot holds
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// gcTurnEvents is how many events the loop executes between yields of
// its thread: with one P, a loop that never parks starves the GC's
// background mark worker and the heap overshoots its goal.
const gcTurnEvents = 1 << 12

// Scheduler owns the virtual clock, the event queue and all processes.
// The zero value is not usable; call New.
type Scheduler struct {
	now     Time
	events  eventHeap
	seq     uint64
	closed  bool
	inLoop  bool
	limit   Time // the running loop runs only events due by limit
	procSeq int
	nEvents uint64                    // total events executed, for diagnostics
	coros   []*coro                   // every coroutine started, for Close
	free    []*coro                   // coroutines whose Proc finished, for the next Go
	trace   func(at Time, seq uint64) // sees every event executed; tests only
	pools   []any                     // the simulation's record pools, by PoolKey
}

// New returns an empty scheduler with the clock at zero.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Events returns the number of events executed so far.
func (s *Scheduler) Events() uint64 { return s.nEvents }

// push queues e at e.at under the next sequence number. Panics if e.at
// is in the past.
func (s *Scheduler) push(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("sim: event posted in the past (at=%d now=%d)", e.at, s.now))
	}
	s.seq++
	e.seq = s.seq
	s.events.push(e)
}

// post schedules fn at absolute time at. Panics if at is in the past.
func (s *Scheduler) post(at Time, fn func()) { s.push(event{at: at, fn: fn}) }

// postWake schedules a wake of p at absolute time at.
func (s *Scheduler) postWake(at Time, p *Proc) { s.push(event{at: at, p: p}) }

// waiter is a party waiting for a kernel object to hand it control: a
// blocked process, or the callback of a caller with none.
type waiter struct {
	p  *Proc
	fn func()
}

func (w waiter) none() bool { return w.p == nil && w.fn == nil }

// resume schedules w at the current instant: p's wake, or fn's call.
func (s *Scheduler) resume(w waiter) { s.push(event{at: s.now, fn: w.fn, p: w.p}) }

// After schedules fn to run d from now. Negative d is clamped to zero.
func (s *Scheduler) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.post(s.now.Add(d), fn)
}

// At schedules fn at the absolute time at.
func (s *Scheduler) At(at Time, fn func()) { s.post(at, fn) }

// AfterCancel schedules fn to run d from now, like After, and returns a
// cancel function. Cancelling before the event fires suppresses it; a
// cancelled or already-fired event's cancel is a no-op. The timer slot
// stays queued either way, so cancellation never perturbs the ordering
// of unrelated same-instant events.
func (s *Scheduler) AfterCancel(d Duration, fn func()) (cancel func()) {
	if d < 0 {
		d = 0
	}
	cancelled := new(bool)
	s.push(event{at: s.now.Add(d), fn: fn, cancel: cancelled})
	return func() { *cancelled = true }
}

// Run executes events until the queue is empty. Processes blocked on
// resources or queues that will never be signalled are left blocked; call
// Close to reap them.
func (s *Scheduler) Run() {
	s.runUntil(math.MaxInt64)
}

// RunUntil executes events with timestamps <= t and then sets the clock
// to t if it is behind. Remaining events stay queued; a t before Now
// runs nothing.
func (s *Scheduler) RunUntil(t Time) {
	s.runUntil(t)
	if s.now < t {
		s.now = t
	}
}

// runUntil executes events in order until the queue is empty or the next
// one is due after limit.
func (s *Scheduler) runUntil(limit Time) {
	if s.closed {
		panic("sim: Run after Close")
	}
	if s.inLoop {
		panic("sim: re-entrant Run (called from inside the simulation)")
	}
	s.inLoop, s.limit = true, limit
	defer s.leaveLoop()
	for len(s.events) > 0 && !s.closed {
		if s.events[0].at > limit {
			return
		}
		e := s.events.pop()
		if e.cancel != nil && *e.cancel {
			continue
		}
		s.fire(&e)
	}
}

// fire executes one due event: the clock moves to its instant, it counts
// in Events, and its callback runs or its Proc is woken.
func (s *Scheduler) fire(e *event) {
	s.now = e.at
	s.count(e.at, e.seq)
	if e.fn != nil {
		e.fn()
		return
	}
	s.wake(e.p)
}

// count records one executed event, keyed (at, seq), in Events.
func (s *Scheduler) count(at Time, seq uint64) {
	s.nEvents++
	if s.trace != nil {
		s.trace(at, seq)
	}
	if s.nEvents%gcTurnEvents == 0 {
		runtime.Gosched()
	}
}

// runAhead is the run-ahead rule: a Proc waiting on a station blocks
// only if some other event is due first. A running Proc about to post
// its job's completion at fin, which posts its wake at fin, and block
// until the wake fires calls it first; so does a callback about to post
// a completion that relays its continuation (Station.Then). If nothing
// queued is due by fin, fin is within the running loop's limit and the
// scheduler is open, those two events would be the next to fire, one
// after the other, with nothing in between. runAhead then executes them
// in place: it takes their sequence numbers, moves the clock to fin and
// counts them, and reports true, and the caller runs on. Otherwise it
// reports false, and the caller posts and blocks or returns.
func (s *Scheduler) runAhead(fin Time) bool {
	if s.closed || fin > s.limit || (len(s.events) > 0 && s.events[0].at <= fin) {
		return false
	}
	s.now = fin
	for range 2 {
		s.seq++
		s.count(fin, s.seq)
	}
	return true
}

// leaveLoop ends a Run. A Close issued from inside the loop could not
// stop the coroutines while one of them was running; it takes effect here.
func (s *Scheduler) leaveLoop() {
	s.inLoop = false
	if s.closed {
		s.reap()
	}
}

// Close terminates every blocked process, unwinding its coroutine before
// Close returns, and releases the pooled ones. The scheduler must not be
// used afterwards. It is safe to call Close more than once, and from
// inside the simulation, where it takes effect when the current event
// finishes.
func (s *Scheduler) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.inLoop {
		s.reap()
	}
}

func (s *Scheduler) reap() {
	for _, c := range s.coros {
		c.stop()
	}
	s.coros, s.free = nil, nil
}

// killed is the panic value used to unwind a Proc's coroutine at Close time.
type killed struct{}

// coro is a coroutine that runs Proc bodies, one after another: when a
// body returns, the coroutine parks on its scheduler's free list until
// the next Proc starts.
type coro struct {
	resume func() (struct{}, bool) // runs the coroutine until it parks
	stop   func()                  // unwinds it; park then reports false
	park   func(struct{}) bool     // hands control back to the loop
	p      *Proc                   // the Proc it runs, nil while pooled
}

func (s *Scheduler) newCoro() *coro {
	c := &coro{}
	c.resume, c.stop = iter.Pull(func(park func(struct{}) bool) {
		c.park = park
		for c.run() && park(struct{}{}) {
		}
	})
	s.coros = append(s.coros, c)
	return c
}

// run executes the body of the Proc bound to c and reports whether c
// may run another: false once Close has stopped it. A panic other than
// the Close-time unwind reaches the caller of Run, naming the Proc.
func (c *coro) run() (more bool) {
	p := c.p
	defer func() {
		p.dead, p.co, p.fn, c.p = true, nil, nil, nil
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(fmt.Sprintf("sim: proc %s panicked: %v", p.Name(), r))
			}
		}
	}()
	p.fn(p)
	p.s.free = append(p.s.free, c)
	return true
}

// Proc is a logical process: a coroutine that runs only when the scheduler
// resumes it and always hands control back before simulated time advances.
type Proc struct {
	s    *Scheduler
	name string
	id   int
	fn   func(p *Proc) // the body, until it returns
	co   *coro         // the coroutine running the body, nil until it starts
	dead bool
	note any
}

// Go spawns a new process whose body starts executing at the current
// simulated time (after already-queued events at this time).
func (s *Scheduler) Go(name string, fn func(p *Proc)) *Proc {
	p := s.newProc(name, fn)
	s.postWake(s.now, p)
	return p
}

// Start spawns a process whose body runs at once, inside the current
// event, until it first blocks or returns; then Start returns. Unlike Go
// it posts no start event, so the events the body posts take the (at,
// seq) places they would take if an already-running process executed
// the same body: a callback that reaches a point where it must really
// block continues on a process started here, and the event order does
// not change. Call it only from inside the event loop.
func (s *Scheduler) Start(name string, fn func(p *Proc)) *Proc {
	p := s.newProc(name, fn)
	s.wake(p)
	return p
}

func (s *Scheduler) newProc(name string, fn func(p *Proc)) *Proc {
	s.procSeq++
	return &Proc{s: s, name: name, id: s.procSeq, fn: fn}
}

// Procs returns the number of processes ever spawned, by Go or Start.
func (s *Scheduler) Procs() int { return s.procSeq }

// Coroutines returns the number of coroutines created to run process
// bodies, until Close releases them; a finished body's coroutine is
// reused by the next.
func (s *Scheduler) Coroutines() int { return len(s.coros) }

// wake resumes p and returns when p blocks again or finishes. It must only
// be called from inside the event loop (i.e. from an event callback). The
// first wake of a Proc starts its body on a pooled or fresh coroutine; a
// wake of a finished Proc does nothing.
func (s *Scheduler) wake(p *Proc) {
	if p.dead {
		return
	}
	c := p.co
	if c == nil {
		if n := len(s.free); n > 0 {
			c = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			c = s.newCoro()
		}
		c.p, p.co = p, c
	}
	c.resume()
}

// block parks p until some event wakes it.
func (p *Proc) block() {
	if !p.co.park(struct{}{}) {
		//lint:ignore panicfree killed{} is the coroutine-unwind token coro.run recovers by type; a string would be caught by nothing
		panic(killed{})
	}
}

// Name returns the process name with its scheduler-unique id, name#id.
func (p *Proc) Name() string { return fmt.Sprintf("%s#%d", p.name, p.id) }

// SetAnnotation attaches an opaque per-process value; Annotation reads
// it back (nil when unset). The kernel never inspects the value — layers
// above use it to carry request context (e.g. an observability span)
// across the blocking points of one logical process.
func (p *Proc) SetAnnotation(v any) { p.note = v }

// Annotation returns the value set by SetAnnotation, or nil.
func (p *Proc) Annotation() any { return p.note }

// Sched returns the owning scheduler.
func (p *Proc) Sched() *Scheduler { return p.s }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.s.now }

// Sleep suspends the process for d. Negative d is treated as zero but still
// yields, preserving event ordering fairness.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.s.postWake(p.s.now.Add(d), p)
	p.block()
}

// Yield lets other events scheduled at the current instant run first.
func (p *Proc) Yield() { p.Sleep(0) }
