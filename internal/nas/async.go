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
	// facade carries it on the job that runs the op. The op starts at
	// its admission instant, so no queue time accrues between.
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

// asyncClient is the one AsyncClient: it gives any Client asynchronous
// submission with depth N, with no protocol change. Every admitted
// operation starts at the admission instant as a task of the client's
// own (see asyncOp), so N admitted operations keep N calls in flight,
// as N application threads would, but with no process or worker
// behind them: the paper's descriptor queues and completion queue
// (§2–3). Admission is a FIFO credit resource of Depth units, so
// submitters are granted slots in arrival order. Completions are
// buffered in completion order, and one signal wakes their waiter.
// For the cached (O)DAFS client this is what makes independent
// operations pipeline through one block cache: their span fetches
// overlap, and fetches of the same block coalesce on the cache's
// inflight table.
type asyncClient struct {
	Client
	s           *sim.Scheduler
	depth       int
	credits     *sim.Resource
	nextTag     uint64
	outstanding int
	done        []Completion
	spare       []Completion // the slice the last Wait returned
	avail       *sim.Signal
	free        []*asyncOp // finished operations' records, for reuse
}

// asyncOp is one admitted operation, run as the client's task over a
// job of its own; it returns to the free list when the operation
// completes, keeping its task and job for the next.
type asyncOp struct {
	a     *asyncClient
	task  Task
	j     host.Job
	op    Op
	tag   uint64
	at    sim.Time
	start func() // o.begin, bound once
}

// NewAsync returns an asynchronous facade over c with the given queue
// depth. The scheduler is picked up from the first submitting or
// waiting caller.
func NewAsync(c Client, depth int) AsyncClient {
	if depth < 1 {
		panic(fmt.Sprintf("nas: async queue depth must be >= 1, got %d", depth))
	}
	return &asyncClient{Client: c, depth: depth}
}

func (a *asyncClient) ensure(s *sim.Scheduler) {
	if a.s == nil {
		a.s = s
		a.credits = sim.NewResource(s, "async-depth", int64(a.depth))
	}
}

// Depth implements AsyncClient.
func (a *asyncClient) Depth() int { return a.depth }

// Outstanding implements AsyncClient.
func (a *asyncClient) Outstanding() int { return a.outstanding }

// Submit implements AsyncClient: once admitted (blocking p while Depth
// operations are outstanding), the operation starts at the current
// instant.
func (a *asyncClient) Submit(p *sim.Proc, op Op) uint64 {
	a.ensure(p.Sched())
	a.credits.Acquire(p, 1)
	return a.Issue(op)
}

// Admit implements AsyncClient.
func (a *asyncClient) Admit(s *sim.Scheduler, k func()) bool {
	a.ensure(s)
	return a.credits.AcquireOr(1, k)
}

// Issue implements AsyncClient: the operation starts at a same-instant
// event, so there is no pickup delay to bucket as queue time, and its
// span rides along for exactly the operation.
func (a *asyncClient) Issue(op Op) uint64 {
	var o *asyncOp
	if k := len(a.free); k > 0 {
		o = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		o = &asyncOp{a: a, task: a.Client.NewTask()}
		o.j = host.Job{S: a.s, Step: o.resume}
		o.start = o.begin
	}
	a.outstanding++
	a.nextTag++
	o.op, o.tag, o.at = op, a.nextTag, a.s.Now()
	o.j.Span = op.Span
	a.s.After(0, o.start)
	return o.tag
}

// begin runs the operation from its start.
func (o *asyncOp) begin() {
	if RunOp(o.task, &o.j, &o.op) {
		o.finish()
	}
}

// resume continues the operation where a wait ended.
func (o *asyncOp) resume() {
	o.j.Resume()
	if o.task.Step(&o.j) {
		o.finish()
	}
}

// finish buffers the operation's completion, releases its queue slot,
// wakes any waiter, and returns the record to the free list.
func (o *asyncOp) finish() {
	a := o.a
	n, _, err := o.task.Result()
	a.done = append(a.done, Completion{Tag: o.tag, Op: o.op, N: n, Err: err, Submitted: o.at, Done: a.s.Now()})
	o.op, o.j.Span = Op{}, nil
	a.free = append(a.free, o)
	a.outstanding--
	a.credits.Release(1)
	if a.avail != nil {
		a.avail.Fire()
	}
}

// Wait implements AsyncClient. The returned slice is the facade's own:
// it stays valid until the next Wait, whose completions reuse its
// storage. One signal serves every Wait, re-armed once fired.
func (a *asyncClient) Wait(p *sim.Proc) []Completion {
	a.ensure(p.Sched())
	for len(a.done) == 0 {
		a.arm().Wait(p)
	}
	return a.drain()
}

// WaitOr implements AsyncClient, as Wait.
func (a *asyncClient) WaitOr(s *sim.Scheduler, k func()) ([]Completion, bool) {
	a.ensure(s)
	if len(a.done) == 0 {
		a.arm().Then(k)
		return nil, false
	}
	return a.drain(), true
}

// arm returns the completion signal, unfired.
func (a *asyncClient) arm() *sim.Signal {
	switch {
	case a.avail == nil:
		a.avail = sim.NewSignal(a.s)
	case a.avail.Fired():
		a.avail.Reset()
	}
	return a.avail
}

// drain returns the buffered completions.
func (a *asyncClient) drain() []Completion {
	out := a.done
	clear(a.spare)
	a.done, a.spare = a.spare[:0], out
	return out
}
