package nas

import (
	"fmt"

	"danas/internal/host"
	"danas/internal/obs"
	"danas/internal/sim"
)

// OpKind selects the data operation an Op performs.
type OpKind uint8

const (
	// OpRead transfers bytes from the server into the client buffer.
	OpRead OpKind = iota
	// OpWrite transfers bytes from the client buffer to the server.
	OpWrite
	// OpCommit makes earlier unstable writes to [Off, Off+N) durable
	// (N <= 0 commits the whole file); it moves no payload bytes.
	OpCommit
)

func (k OpKind) String() string {
	switch k {
	case OpWrite:
		return "write"
	case OpCommit:
		return "commit"
	default:
		return "read"
	}
}

// Op is one queued data operation: the unit of asynchronous submission.
// Namespace operations (open, create, remove, close) stay synchronous on
// the embedded Client — they are rare and ordering-sensitive.
type Op struct {
	Kind  OpKind
	H     *Handle
	Off   int64
	N     int64
	BufID uint64
	// Span, when non-nil, is the operation's trace span: the async
	// implementations activate it on whichever process runs the op, and
	// attribute time spent queued before execution to its queue phase.
	Span *obs.Span
}

// Completion reports one finished Op, in the style of a VI completion
// queue entry: the tag Submit returned, the bytes moved, the error if
// any, and the submission/completion instants for latency accounting.
type Completion struct {
	Tag       uint64
	Op        Op
	N         int64
	Err       error
	Submitted sim.Time
	Done      sim.Time
}

// AsyncClient is a Client with a VI-style submission/completion
// interface layered on top: data operations are queued with Submit and
// reaped with Wait, with at most Depth operations outstanding. The
// paper's NICs expose exactly this shape (queues of descriptors plus a
// completion queue, §2–3); the synchronous Client methods remain
// available for metadata and for callers that want one blocking call.
// Admit, Issue and WaitOr are the same queues for a caller with no
// process of its own, which waits by callbacks instead of blocking.
type AsyncClient interface {
	Client
	// Depth returns the bound on outstanding operations.
	Depth() int
	// Outstanding returns the number of submitted operations whose
	// completions have not yet been produced.
	Outstanding() int
	// Submit queues op and returns its tag. It blocks the calling
	// process while Depth operations are already outstanding — the
	// submission queue is bounded, like a VI send queue.
	Submit(p *sim.Proc, op Op) uint64
	// Wait blocks until at least one completion is available, then
	// returns and drains every buffered completion in completion order.
	// Callers must only Wait when an operation is outstanding or another
	// process will submit one; otherwise the process blocks forever.
	// The returned slice is valid until the next Wait.
	Wait(p *sim.Proc) []Completion
	// Admit is Submit's admission for a caller with no process: it
	// reports true if a queue slot was free, now the caller's.
	// Otherwise k runs, holding a slot, where a submitting process
	// would have been granted one. Issue then submits into the slot.
	Admit(s *sim.Scheduler, k func()) bool
	// Issue submits op into a slot Admit granted and returns its tag.
	Issue(op Op) uint64
	// WaitOr is Wait for a caller with no process: it drains the
	// buffered completions and reports true, or, with none, queues k to
	// run where a waiting process would have been woken and reports
	// false.
	WaitOr(s *sim.Scheduler, k func()) ([]Completion, bool)
}

// AsyncBase supplies the bookkeeping every AsyncClient implementation
// shares: tag assignment, the bounded-depth admission gate (a FIFO
// credit resource, so submitters are granted slots in arrival order),
// the completion buffer, and waiter wakeup. Implementations call
// Admitted from Issue and Finish when an operation completes; Depth,
// Outstanding, Admit, Wait and WaitOr are promoted as-is.
type AsyncBase struct {
	s           *sim.Scheduler
	depth       int
	credits     *sim.Resource
	nextTag     uint64
	outstanding int
	done        []Completion
	spare       []Completion // the slice the last Wait returned
	avail       *sim.Signal
}

// InitAsync sets the queue depth. Implementations call it once at
// construction; the scheduler is picked up lazily from the first
// submitting or waiting caller.
func (b *AsyncBase) InitAsync(depth int) {
	if depth < 1 {
		panic(fmt.Sprintf("nas: async queue depth must be >= 1, got %d", depth))
	}
	b.depth = depth
}

func (b *AsyncBase) ensure(s *sim.Scheduler) {
	if b.s == nil {
		b.s = s
		b.credits = sim.NewResource(b.s, "async-depth", int64(b.depth))
	}
}

// Depth returns the bound on outstanding operations.
func (b *AsyncBase) Depth() int { return b.depth }

// Outstanding returns submitted-but-uncompleted operations.
func (b *AsyncBase) Outstanding() int { return b.outstanding }

// Begin admits one operation from p, blocking p while the queue is
// full; Issue then submits it.
func (b *AsyncBase) Begin(p *sim.Proc) {
	b.ensure(p.Sched())
	b.credits.Acquire(p, 1)
}

// Admit implements AsyncClient.Admit.
func (b *AsyncBase) Admit(s *sim.Scheduler, k func()) bool {
	b.ensure(s)
	return b.credits.AcquireOr(1, k)
}

// Admitted counts one admitted operation outstanding and returns its
// tag and the admission instant.
func (b *AsyncBase) Admitted() (tag uint64, submitted sim.Time) {
	b.outstanding++
	b.nextTag++
	return b.nextTag, b.s.Now()
}

// Finish buffers one completion, stamps its Done time, releases the
// operation's queue slot, and wakes any waiter.
func (b *AsyncBase) Finish(c Completion) {
	c.Done = b.s.Now()
	b.outstanding--
	b.done = append(b.done, c)
	b.credits.Release(1)
	if b.avail != nil {
		b.avail.Fire()
	}
}

// Wait implements AsyncClient.Wait. The returned slice is the base's
// own: it stays valid until the next Wait, whose completions reuse its
// storage. One signal serves every Wait, re-armed once fired.
func (b *AsyncBase) Wait(p *sim.Proc) []Completion {
	b.ensure(p.Sched())
	for len(b.done) == 0 {
		b.arm().Wait(p)
	}
	return b.drain()
}

// WaitOr implements AsyncClient.WaitOr, as Wait.
func (b *AsyncBase) WaitOr(s *sim.Scheduler, k func()) ([]Completion, bool) {
	b.ensure(s)
	if len(b.done) == 0 {
		b.arm().Then(k)
		return nil, false
	}
	return b.drain(), true
}

// arm returns the completion signal, unfired.
func (b *AsyncBase) arm() *sim.Signal {
	switch {
	case b.avail == nil:
		b.avail = sim.NewSignal(b.s)
	case b.avail.Fired():
		b.avail.Reset()
	}
	return b.avail
}

// drain returns the buffered completions.
func (b *AsyncBase) drain() []Completion {
	out := b.done
	clear(b.spare)
	b.done, b.spare = b.spare[:0], out
	return out
}

// queuedOp is one submission in flight through the generic adapter.
type queuedOp struct {
	tag       uint64
	op        Op
	submitted sim.Time
}

// asyncAdapter gives any synchronous Client asynchronous
// submission-with-depth-N for free by multiplexing operations onto a
// pool of Depth workers, each running one operation at a time as the
// wrapped client's Task. This is how the three RPC-based stacks (NFS,
// RDDP-RPC, RDDP-RDMA) gain queue depth without protocol changes: N
// workers keep N RPCs in flight, exactly like N application threads
// would, but the workers are callbacks, not processes.
type asyncAdapter struct {
	Client
	AsyncBase
	sq *sim.Queue[queuedOp]
}

// NewAsync wraps a synchronous client in the generic async adapter with
// the given queue depth.
func NewAsync(c Client, depth int) AsyncClient {
	a := &asyncAdapter{Client: c}
	a.InitAsync(depth)
	return a
}

// Submit implements AsyncClient.
func (a *asyncAdapter) Submit(p *sim.Proc, op Op) uint64 {
	a.Begin(p)
	return a.Issue(op)
}

// Issue implements AsyncClient. The first submission starts the worker
// pool, each worker at a same-instant event of its own.
func (a *asyncAdapter) Issue(op Op) uint64 {
	tag, at := a.Admitted()
	if a.sq == nil {
		s := a.s
		a.sq = sim.NewQueue[queuedOp](s, "async-sq")
		for range a.Depth() {
			wk := &worker{a: a, task: a.Client.NewTask()}
			wk.j = host.Job{S: s, Step: wk.resume}
			wk.get = wk.next
			s.After(0, wk.get)
		}
	}
	a.sq.Put(queuedOp{tag: tag, op: op, submitted: at})
	return tag
}

// worker is one worker of the adapter: a receive loop on the
// submission queue (sim.Queue.GetOr) and the task running the operation
// it took, event for event what a worker process calling Get and the
// blocking method would run. Because admission is capped at Depth — the
// pool's size — a queued operation never waits behind more than the
// in-flight window. Time between admission and worker pickup is the
// operation's queue phase; the span then rides along for exactly the
// operation.
type worker struct {
	a    *asyncAdapter
	task Task
	j    host.Job
	q    queuedOp
	get  func() // w.next, bound once
}

// next takes queued operations and runs each until one waits.
func (w *worker) next() {
	a := w.a
	for {
		q, ok := a.sq.GetOr(w.get)
		if !ok {
			return
		}
		w.q = q
		q.op.Span.Add(obs.PhaseQueue, a.s.Now().Sub(q.submitted))
		w.j.Span = q.op.Span
		if !RunOp(w.task, &w.j, &w.q.op) {
			return
		}
		w.finish()
	}
}

// resume continues the operation where a wait ended, and the receive
// loop once it is done.
func (w *worker) resume() {
	w.j.Resume()
	if !w.task.Step(&w.j) {
		return
	}
	w.finish()
	w.next()
}

// finish completes the operation at hand.
func (w *worker) finish() {
	n, _, err := w.task.Result()
	q := w.q
	w.q, w.j.Span = queuedOp{}, nil
	w.a.Finish(Completion{Tag: q.tag, Op: q.op, N: n, Err: err, Submitted: q.submitted})
}
