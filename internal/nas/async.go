package nas

import (
	"fmt"

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

// Run executes the operation synchronously on c, dispatching on Kind.
// Every AsyncClient implementation routes through this so a new OpKind
// cannot be dispatched inconsistently between them.
func (op Op) Run(p *sim.Proc, c Client) (int64, error) {
	switch op.Kind {
	case OpWrite:
		return c.Write(p, op.H, op.Off, op.N, op.BufID)
	case OpCommit:
		return 0, c.Commit(p, op.H, op.Off, op.N)
	default:
		return c.Read(p, op.H, op.Off, op.N, op.BufID)
	}
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
}

// AsyncBase supplies the bookkeeping every AsyncClient implementation
// shares: tag assignment, the bounded-depth admission gate (a FIFO
// credit resource, so submitters are granted slots in arrival order),
// the completion buffer, and waiter wakeup. Implementations call Begin
// from Submit and Finish when an operation completes; Depth,
// Outstanding and Wait are promoted as-is.
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
// submitting or waiting process.
func (b *AsyncBase) InitAsync(depth int) {
	if depth < 1 {
		panic(fmt.Sprintf("nas: async queue depth must be >= 1, got %d", depth))
	}
	b.depth = depth
}

func (b *AsyncBase) ensure(p *sim.Proc) {
	if b.s == nil {
		b.s = p.Sched()
		b.credits = sim.NewResource(b.s, "async-depth", int64(b.depth))
	}
}

// Depth returns the bound on outstanding operations.
func (b *AsyncBase) Depth() int { return b.depth }

// Outstanding returns submitted-but-uncompleted operations.
func (b *AsyncBase) Outstanding() int { return b.outstanding }

// Begin admits one operation: it blocks p while the queue is full, then
// assigns the next tag and records the admission instant.
func (b *AsyncBase) Begin(p *sim.Proc) (tag uint64, submitted sim.Time) {
	b.ensure(p)
	b.credits.Acquire(p, 1)
	b.outstanding++
	b.nextTag++
	return b.nextTag, b.s.Now()
}

// Finish buffers one completion, stamps its Done time, releases the
// operation's queue slot, and wakes any Wait-blocked process.
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
	b.ensure(p)
	for len(b.done) == 0 {
		switch {
		case b.avail == nil:
			b.avail = sim.NewSignal(b.s)
		case b.avail.Fired():
			b.avail.Reset()
		}
		b.avail.Wait(p)
	}
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
// pool of Depth worker processes, each issuing blocking calls on the
// wrapped client. This is how the three RPC-based stacks (NFS, RDDP-RPC,
// RDDP-RDMA) gain queue depth without protocol changes: N workers keep N
// RPCs in flight, exactly like N application threads would.
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

// Submit implements AsyncClient. The first submission spawns the worker
// pool on the submitting process's scheduler.
func (a *asyncAdapter) Submit(p *sim.Proc, op Op) uint64 {
	tag, at := a.Begin(p)
	if a.sq == nil {
		s := p.Sched()
		a.sq = sim.NewQueue[queuedOp](s, "async-sq")
		for w := 0; w < a.Depth(); w++ {
			s.Go(fmt.Sprintf("async-%s-w%d", a.Client.Name(), w), a.worker)
		}
	}
	a.sq.Put(queuedOp{tag: tag, op: op, submitted: at})
	return tag
}

// worker executes queued operations one at a time. Because admission is
// capped at Depth — the pool's size — a queued operation never waits
// behind more than the in-flight window. Time between admission and
// worker pickup is the operation's queue phase; the span then stays
// active for exactly the Run call.
func (a *asyncAdapter) worker(wp *sim.Proc) {
	for {
		q := a.sq.Get(wp)
		q.op.Span.Add(obs.PhaseQueue, wp.Now().Sub(q.submitted))
		obs.Activate(wp, q.op.Span)
		n, err := q.op.Run(wp, a.Client)
		obs.Activate(wp, nil)
		a.Finish(Completion{Tag: q.tag, Op: q.op, N: n, Err: err, Submitted: q.submitted})
	}
}
