package sim

// Station is a single-server FIFO queue with service times known at submit
// time: a CPU, a DMA engine, a link direction, a firmware processor. Unlike
// Resource it needs no process context — work is scheduled as an event chain
// — which keeps per-packet simulation cheap.
//
// Serve(d, done) enqueues a job of length d behind any outstanding work and
// calls done when it completes. The queue is work-conserving and
// non-preemptive.
//
// A job's completion takes its (at, seq) place in the event order when it
// is submitted, but only the earliest pending completion sits in the
// scheduler's heap: finish times never decrease in submission order, so
// when one completion fires the next can enter the heap under the key it
// reserved without changing the order events run in. A backlogged station
// thus holds one heap entry, however deep its queue.
type Station struct {
	s         *Scheduler
	name      string
	busyUntil Time
	epoch     Time
	busyInt   float64 // total service time scheduled since epoch
	jobs      uint64
	pending   Ring[completion] // the head's event is in the heap
	fire      func()           // st.complete, bound once
}

// completion is a pending job's keyed completion: a callback run in
// place (p nil), the wake of a process blocked in Wait, or, where p is
// relay, a Then continuation fn called through a same-instant event. It
// is kept to four words: with a fifth, a chain of station callbacks ran
// about a third slower (Go 1.24, 2-vCPU x86-64 VM).
type completion struct {
	at  Time
	seq uint64
	fn  func()
	p   *Proc
}

// relay marks a Then completion; it is never run.
var relay = new(Proc)

// NewStation creates an idle station.
func NewStation(s *Scheduler, name string) *Station {
	st := &Station{s: s, name: name, epoch: s.now}
	st.fire = st.complete
	return st
}

// post reserves the next sequence number for a completion at c.at and
// queues it; an idle ring puts it straight into the heap.
func (st *Station) post(c completion) {
	st.s.seq++
	c.seq = st.s.seq
	if st.pending.Len() == 0 {
		st.s.events.push(event{at: c.at, seq: c.seq, fn: st.fire})
	}
	st.pending.Push(c)
}

// complete fires the head completion after handing the heap the next one,
// under its reserved key. A waiter's completion posts a same-instant
// wake or call, the post a Signal fired at that instant would make.
func (st *Station) complete() {
	c := st.pending.Pop()
	if st.pending.Len() > 0 {
		next := st.pending.Front()
		st.s.events.push(event{at: next.at, seq: next.seq, fn: st.fire})
	}
	switch c.p {
	case nil:
		c.fn()
	case relay:
		st.s.post(st.s.now, c.fn)
	default:
		st.s.postWake(st.s.now, c.p)
	}
}

// Name returns the station name.
func (st *Station) Name() string { return st.name }

// Serve schedules a job of duration d and returns its completion time.
// done (may be nil) runs at that time.
func (st *Station) Serve(d Duration, done func()) Time {
	if d < 0 {
		d = 0
	}
	start := st.s.now
	if st.busyUntil > start {
		start = st.busyUntil
	}
	fin := start.Add(d)
	st.busyUntil = fin
	st.busyInt += float64(d)
	st.jobs++
	if done != nil {
		st.post(completion{at: fin, fn: done})
	}
	return fin
}

// ServeAt is Serve for a job that only becomes ready at time ready (e.g. a
// fragment that arrives later). Work is scheduled at max(ready, queue tail).
func (st *Station) ServeAt(ready Time, d Duration, done func()) Time {
	if d < 0 {
		d = 0
	}
	if ready < st.s.now {
		ready = st.s.now
	}
	start := ready
	if st.busyUntil > start {
		start = st.busyUntil
	}
	fin := start.Add(d)
	st.busyUntil = fin
	st.busyInt += float64(d)
	st.jobs++
	if done != nil {
		st.post(completion{at: fin, fn: done})
	}
	return fin
}

// Wait makes process p execute a job of duration d on the station and
// returns when it completes — the process-style entry point. p blocks
// only if another event is due by then; otherwise the job's completion
// and p's wake fire in place (see Scheduler.runAhead), in the same event
// order. A backlogged station's head completion sits in the heap, due by
// then, so p always blocks behind a pending completion.
func (st *Station) Wait(p *Proc, d Duration) {
	fin := st.Serve(d, nil)
	if st.s.runAhead(fin) {
		return
	}
	st.post(completion{at: fin, p: p})
	p.block()
}

// Then is the callback twin of Wait, for a caller with no process: it
// executes a job of duration d on the station and reports true if the
// job's two events ran ahead in place (nothing else was due by its
// finish), with the clock now at the finish; the caller then carries on
// itself, as a Proc returning from Wait would. Otherwise it reports
// false: the job's completion relays k through a same-instant event, the
// two events Wait posts, and k runs where the Proc would have resumed.
func (st *Station) Then(d Duration, k func()) bool {
	fin := st.Serve(d, nil)
	if st.s.runAhead(fin) {
		return true
	}
	st.post(completion{at: fin, fn: k, p: relay})
	return false
}

// BusyUntil returns the time the current backlog drains.
func (st *Station) BusyUntil() Time { return st.busyUntil }

// Jobs returns the number of jobs ever served.
func (st *Station) Jobs() uint64 { return st.jobs }

// Utilization returns scheduled-service-time / elapsed since the last
// MarkEpoch. Because service time is accounted at submit time, utilization
// can transiently exceed 1 while a backlog is queued; by the time the
// backlog drains it is exact. Mark the epoch at a quiescent instant.
func (st *Station) Utilization() float64 {
	elapsed := float64(st.s.now - st.epoch)
	if elapsed <= 0 {
		return 0
	}
	return st.busyInt / elapsed
}

// BusyTime returns total service time scheduled since the last MarkEpoch.
func (st *Station) BusyTime() Duration { return Duration(st.busyInt) }

// MarkEpoch restarts utilization accounting at the current instant.
func (st *Station) MarkEpoch() {
	st.busyInt = 0
	st.epoch = st.s.now
}
