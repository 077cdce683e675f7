package stripe

import (
	"fmt"

	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/sim"
)

// SpanOp is one shard's step of a striped operation: the byte range
// [off, off+n) of the file, all owned by shard, through the shard's own
// handle sh. It returns the bytes it moved.
type SpanOp func(wp *sim.Proc, shard int, sh *nas.Handle, off, n int64) (int64, error)

// Striper is the striping layer both striped clients embed: the layout,
// the table of each open name's per-shard handles, and the fan-outs that
// run a per-shard step on every shard (namespace operations), on each
// span's owning shard (data and commits), or on the shards a write left
// short of the new end of file (extend). It issues no call itself: the
// open, close and data fan-outs run the client's per-shard tasks, the
// extend fan-out its extend step (Shards), and the others take the
// per-shard step as a function. Client steps through per-shard
// sub-clients, the cached (O)DAFS client (internal/core) through
// per-shard replica sets behind its one block cache.
type Striper struct {
	Fans
	layout Layout
	// handles maps an open name to its per-shard handles; index 0 is the
	// canonical handle returned to the application.
	handles map[string][]*nas.Handle
	shards  Shards
	// tasks holds each shard's idle tasks, for reuse.
	tasks [][]nas.Task
}

// Shards is a striped client's per-shard side, which its Striper's
// fan-outs run on.
type Shards interface {
	// ShardTask makes a task running operations on shard (see
	// nas.Task): the open, close and data fan-outs' legs.
	ShardTask(shard int) nas.Task
	// ExtendShard is the extend fan-out's step: a zero-length write at
	// end on shard, through its handle sh, which the servers' write path
	// extends the file on.
	ExtendShard(wp *sim.Proc, shard int, sh *nas.Handle, end int64) error
}

// NewStriper builds the striping layer for layout over the client's
// per-shard side.
func NewStriper(layout Layout, shards Shards) Striper {
	if err := layout.Validate(); err != nil {
		panic(err.Error())
	}
	return Striper{layout: layout, handles: make(map[string][]*nas.Handle), shards: shards}
}

// task returns an idle task for shard.
func (s *Striper) task(shard int) nas.Task {
	if s.tasks == nil {
		s.tasks = make([][]nas.Task, s.layout.Shards)
	}
	if k := len(s.tasks[shard]); k > 0 {
		t := s.tasks[shard][k-1]
		s.tasks[shard] = s.tasks[shard][:k-1]
		return t
	}
	return s.shards.ShardTask(shard)
}

// putTask returns a finished task to shard's idle list.
func (s *Striper) putTask(shard int, t nas.Task) { s.tasks[shard] = append(s.tasks[shard], t) }

// Layout returns the striping scheme.
func (s *Striper) Layout() Layout { return s.layout }

// Handles returns name's per-shard handles, if an open or create of it
// recorded them.
func (s *Striper) Handles(name string) ([]*nas.Handle, bool) {
	hs, ok := s.handles[name]
	return hs, ok
}

// ShardHandle resolves the per-shard handle for h, falling back to h
// itself (correct when every shard assigned identical handles, which a
// replicated namespace with identical creation order guarantees, and
// always on shard 0, whose handle is canonical).
func (s *Striper) ShardHandle(h *nas.Handle, shard int) *nas.Handle {
	if hs, ok := s.handles[h.Name]; ok && shard < len(hs) {
		return hs[shard]
	}
	return h
}

// Opening returns the fan-out that opens name on every shard
// concurrently and records the per-shard handles under name; its Handle
// is shard 0's.
func (s *Striper) Opening(name string) *Run {
	r := s.take(s, runOpen, s.layout.Shards)
	r.file = name
	r.hs = make([]*nas.Handle, s.layout.Shards)
	return r
}

// Closing returns the fan-out that closes every shard's handle of hs,
// or, with hs nil, h on shard 0 alone.
func (s *Striper) Closing(hs []*nas.Handle, h *nas.Handle) *Run {
	n := len(hs)
	if hs == nil {
		n = 1
	}
	r := s.take(s, runClose, n)
	r.hs, r.h = hs, h
	return r
}

// Spanning returns the fan-out that splits [off, off+n) of h into
// per-shard spans and runs a data operation of kind on each, from the
// buffer bufID; its Total is the bytes they moved.
func (s *Striper) Spanning(h *nas.Handle, kind nas.OpKind, off, n int64, bufID uint64) *Run {
	r := s.spanning(runSpans, h, off, n)
	r.op = nas.Op{Kind: kind, BufID: bufID}
	return r
}

func (s *Striper) spanning(kind runKind, h *nas.Handle, off, n int64) *Run {
	r := s.record(s, kind)
	r.spans = s.layout.AppendSpans(r.spans[:0], off, n)
	r.size(len(r.spans))
	r.h, r.name = h, "stripe-span"
	return r
}

// Extending returns the fan-out that keeps the replicated size metadata
// coherent after a write of [off, off+n): a shard only grows its copy of
// the file to the end of the spans it received, so when the write
// extends the file every lagging shard (Layout.ExtendTargets) gets the
// extend step at the new end, and h.Size follows. Without this,
// per-shard sizes diverge and shard-0-sourced opens and attributes would
// understate the file.
func (s *Striper) Extending(h *nas.Handle, off, n int64) *Run {
	r := s.record(s, runExtend)
	r.h, r.end, r.name = h, off+n, "stripe-extend"
	r.spans = r.spans[:0]
	if r.end <= h.Size {
		r.end = h.Size // nothing to extend
	} else {
		for _, t := range s.layout.ExtendTargets(off, n) {
			r.spans = append(r.spans, Span{Shard: t})
		}
	}
	r.size(len(r.spans))
	return r
}

// Resolve runs a handle-returning namespace operation (a create) on
// every shard concurrently, each on a process of its own, and records
// the per-shard handles under name; shard 0's is returned.
func (s *Striper) Resolve(p *sim.Proc, name string, fn func(wp *sim.Proc, shard int) (*nas.Handle, error)) (*nas.Handle, error) {
	hs := make([]*nas.Handle, s.layout.Shards)
	err := s.FanOut(p, len(hs), "stripe-resolve", func(wp *sim.Proc, i int) error {
		h, err := fn(wp, i)
		hs[i] = h
		return err
	})
	if err != nil {
		return nil, err
	}
	s.handles[name] = hs
	return hs[0], nil
}

// Unlink forgets name's handles and runs fn (a remove) on every shard
// concurrently.
func (s *Striper) Unlink(p *sim.Proc, name string, fn func(wp *sim.Proc, shard int) error) error {
	delete(s.handles, name)
	return s.FanOut(p, s.layout.Shards, "stripe-unlink", fn)
}

// EachSpan splits [off, off+n) into per-shard spans, runs op on each
// concurrently, each on a process of its own, and returns the bytes
// moved summed over the spans, with the lowest span's error (see
// Run.Total).
func (s *Striper) EachSpan(p *sim.Proc, h *nas.Handle, off, n int64, op SpanOp) (int64, error) {
	r := s.spanning(runProcSpans, h, off, n)
	r.spanOp = op
	r.drive(p)
	got, err := r.Total()
	r.Release()
	return got, err
}

// Extend runs Extending's fan-out from p.
func (s *Striper) Extend(p *sim.Proc, h *nas.Handle, off, n int64) error {
	r := s.Extending(h, off, n)
	r.drive(p)
	err := r.Err()
	r.Release()
	return err
}

// CommitSpans fans a commit out along the layout: a whole-file commit
// (n <= 0) runs op with an empty range on every shard, a range commit
// on each span's owning shard. Each shard runs its own verifier
// comparison and re-issues its own lost writes, which is why every
// target is always attempted: stopping at the first failure would leave
// later shards' lost ranges neither committed nor re-issued. Failures
// aggregate into a *CommitError.
func (s *Striper) CommitSpans(p *sim.Proc, h *nas.Handle, off, n int64, op SpanOp) error {
	var spans []Span
	if n > 0 {
		spans = s.layout.Spans(off, n)
	} else {
		spans = make([]Span, s.layout.Shards)
		for i := range spans {
			spans[i].Shard = i
		}
	}
	// FanOut runs every branch to completion, so the branches collect
	// their own failures and the aggregate is built after the barrier.
	errs := make([]error, len(spans))
	s.FanOut(p, len(spans), "stripe-commit", func(wp *sim.Proc, i int) error {
		sp := spans[i]
		_, errs[i] = op(wp, sp.Shard, s.ShardHandle(h, sp.Shard), sp.Off, sp.Len)
		return nil
	})
	agg := &CommitError{}
	for i, err := range errs {
		if err != nil {
			agg.Shards = append(agg.Shards, spans[i].Shard)
			agg.Errs = append(agg.Errs, err)
		}
	}
	if len(agg.Errs) == 0 {
		return nil
	}
	return agg
}

// CommitError aggregates per-shard commit failures: the fan-out always
// attempts every shard, so the shards that answered have run their
// verifier recovery even when others failed, and the caller sees which
// shards still owe a commit. It unwraps to the per-shard errors for
// errors.Is/As matching.
type CommitError struct {
	// Shards and Errs pair up: Errs[i] is the failure from Shards[i].
	Shards []int
	Errs   []error
}

func (e *CommitError) Error() string {
	if len(e.Errs) == 1 {
		return fmt.Sprintf("stripe: commit failed on shard %d: %v", e.Shards[0], e.Errs[0])
	}
	return fmt.Sprintf("stripe: commit failed on %d shards (first: shard %d: %v)",
		len(e.Errs), e.Shards[0], e.Errs[0])
}

// Unwrap exposes the per-shard errors to errors.Is / errors.As.
func (e *CommitError) Unwrap() []error { return e.Errs }

// Client stripes a nas.Client over per-shard sub-clients through the
// Striper: namespace operations (open, create, remove, close) fan out to
// every shard concurrently, data operations split into per-shard spans
// that also run concurrently. It carries no client cache of its own,
// which makes it the striped mount of the RPC-based systems (the three
// NFS variants and the raw DAFS session client); the cached (O)DAFS
// client embeds the same Striper behind its block cache (internal/core).
// Its opens, closes, reads and writes run as step machines (Task) over
// the sub-clients' tasks; the embedded driver runs them, and commits,
// from a blocking caller.
type Client struct {
	Striper
	nas.Driver[*Client, *Task]
	subs []nas.Client
}

var _ nas.Client = (*Client)(nil)

// NewClient stripes the given per-shard sub-clients (one per layout
// shard, in shard order) under one nas.Client.
func NewClient(layout Layout, subs []nas.Client) *Client {
	if len(subs) != layout.Shards {
		panic(fmt.Sprintf("stripe: %d sub-clients for %d shards", len(subs), layout.Shards))
	}
	c := &Client{subs: subs}
	c.Striper = NewStriper(layout, c)
	c.Driver = nas.NewDriver(c, func(c *Client) *Task { return &Task{c: c} })
	return c
}

// Name implements nas.Client: the protocol name is the sub-clients'.
func (c *Client) Name() string { return c.subs[0].Name() }

// Task runs one operation of a striped Client at a time as a step
// machine over a host.Job: the fan-out it is at, and the outcome.
type Task struct {
	c     *Client
	op    nas.Op
	stage taskStage
	r     *Run
	n     int64
	hd    *nas.Handle
	err   error
	body  func(p *sim.Proc) // t.commit, bound once
}

type taskStage uint8

const (
	taskOpen    taskStage = iota // the open fan-out
	taskClose                    // the close fan-out
	taskSpans                    // the data spans
	taskExtend                   // a write's extend
	taskBlocked                  // a commit, on a process of its own
)

func (t *Task) start(j *host.Job, stage taskStage, r *Run) bool {
	t.stage, t.r, t.n, t.hd, t.err = stage, r, 0, nil, nil
	return t.Step(j)
}

// Open implements nas.Task: the file is opened on every shard
// concurrently (each shard resolves the replicated name); shard 0's
// handle is canonical.
func (t *Task) Open(j *host.Job, name string) bool {
	return t.start(j, taskOpen, t.c.Opening(name))
}

// Close implements nas.Task: every shard's handle is released.
func (t *Task) Close(j *host.Job, h *nas.Handle) bool {
	hs, _ := t.c.Handles(h.Name)
	return t.start(j, taskClose, t.c.Closing(hs, h))
}

// Read implements nas.Task: the read splits into per-shard spans
// issued concurrently so all owning shards stream in parallel (a failed
// one reports 0 bytes).
func (t *Task) Read(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	return t.spans(j, nas.OpRead, h, off, n, bufID)
}

// Write implements nas.Task: the write's spans run as Read's, and the
// lagging shards then extend.
func (t *Task) Write(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	return t.spans(j, nas.OpWrite, h, off, n, bufID)
}

func (t *Task) spans(j *host.Job, kind nas.OpKind, h *nas.Handle, off, n int64, bufID uint64) bool {
	t.op = nas.Op{Kind: kind, H: h, Off: off, N: n, BufID: bufID}
	return t.start(j, taskSpans, t.c.Spanning(h, kind, off, n, bufID))
}

// Commit implements nas.Task: a commit runs on a process of its own.
func (t *Task) Commit(j *host.Job, h *nas.Handle, off, n int64) bool {
	t.op = nas.Op{Kind: nas.OpCommit, H: h, Off: off, N: n}
	if t.body == nil {
		t.body = t.commit
	}
	t.stage, t.n, t.hd, t.err = taskBlocked, 0, nil, nil
	return j.Run("stripe-commit", t.body) && t.Step(j)
}

func (t *Task) commit(p *sim.Proc) { t.err = t.c.commit(p, t.op.H, t.op.Off, t.op.N) }

// Step implements nas.Task.
func (t *Task) Step(j *host.Job) bool {
	for t.stage != taskBlocked {
		if !t.r.Step(j) {
			return false
		}
		r := t.r
		t.r = nil
		switch t.stage {
		case taskOpen:
			t.hd, t.err = r.Handle()
		case taskSpans:
			var got int64
			if got, t.err = r.Total(); t.err == nil {
				t.n = got
			}
		default: // a close, a write's extend
			t.err = r.Err()
		}
		r.Release()
		if t.stage != taskSpans || t.err != nil || t.op.Kind != nas.OpWrite {
			break
		}
		t.stage, t.r = taskExtend, t.c.Extending(t.op.H, t.op.Off, t.op.N)
	}
	t.op = nas.Op{}
	return true
}

// Result implements nas.Task.
func (t *Task) Result() (int64, *nas.Handle, error) { return t.n, t.hd, t.err }

// WriteData implements nas.Client: each shard receives its spans' bytes,
// concurrently like every other data operation; a failed span reports
// the bytes the other spans wrote.
func (c *Client) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	got, err := c.EachSpan(p, h, off, int64(len(data)), func(sp *sim.Proc, shard int, sh *nas.Handle, so, sn int64) (int64, error) {
		return c.subs[shard].WriteData(sp, sh, so, data[so-off:so-off+sn])
	})
	if err != nil {
		return got, err
	}
	return got, c.Extend(p, h, off, int64(len(data)))
}

// ShardTask implements Shards: the sub-client's own task.
func (c *Client) ShardTask(shard int) nas.Task { return c.subs[shard].NewTask() }

// ExtendShard implements Shards: a zero-length write at end.
func (c *Client) ExtendShard(wp *sim.Proc, shard int, sh *nas.Handle, end int64) error {
	_, err := c.subs[shard].WriteData(wp, sh, end, nil)
	return err
}

// commit is the commit's body (Task.Commit), through CommitSpans: each
// sub-client runs its own verifier comparison, and failures aggregate
// into a *CommitError.
func (c *Client) commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	return c.CommitSpans(p, h, off, n, func(wp *sim.Proc, shard int, sh *nas.Handle, so, sn int64) (int64, error) {
		return 0, c.subs[shard].Commit(wp, sh, so, sn)
	})
}

// Getattr implements nas.Client: attributes come from shard 0 (the
// namespace is replicated; Extend keeps sizes agreeing).
func (c *Client) Getattr(p *sim.Proc, h *nas.Handle) (int64, error) {
	return c.subs[0].Getattr(p, c.ShardHandle(h, 0))
}

// Create implements nas.Client: the name is created on every shard
// concurrently.
func (c *Client) Create(p *sim.Proc, name string) (*nas.Handle, error) {
	return c.Resolve(p, name, func(wp *sim.Proc, i int) (*nas.Handle, error) {
		return c.subs[i].Create(wp, name)
	})
}

// Remove implements nas.Client: the name is removed from every shard.
func (c *Client) Remove(p *sim.Proc, name string) error {
	return c.Unlink(p, name, func(wp *sim.Proc, i int) error {
		return c.subs[i].Remove(wp, name)
	})
}
