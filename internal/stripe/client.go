package stripe

import (
	"fmt"

	"danas/internal/nas"
	"danas/internal/obs"
	"danas/internal/sim"
)

// Fans runs fan-outs for its owner (a Striper or a replica Set) from a
// free list of fan-out records, so a fan-out allocates nothing once its
// owner has run one as wide. The zero value is ready to use.
type Fans struct{ free []*fan }

// fan is one fan-out's state: the legs' step and errors, how many have
// started and finished, and the signal the caller waits on. The caller
// returns it to its Fans once every leg has finished.
type fan struct {
	fn                func(wp *sim.Proc, i int) error
	errs              []error
	started, finished int
	sp                *obs.Span
	done              *sim.Signal
	leg               func(wp *sim.Proc) // f.run, bound once
}

// FanOut runs fn for indexes 0..n-1 as concurrent simulated processes
// and returns the lowest-index error. With n <= 1 it runs in-line on the
// caller's process, so single-shard paths cost exactly what they did
// unstriped. Every striped fan-out (Striper's namespace, span, extend and
// commit fan-outs, a replica Set's fan-outs, and the cached client's
// block fetches) uses it.
func (fs *Fans) FanOut(p *sim.Proc, n int, name string, fn func(wp *sim.Proc, i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return fn(p, 0)
	}
	return fs.fanOut(p, n, name, fn)
}

// fanOut runs n > 1 legs. It is a function of its own so that the
// one-leg path, on which a process may block deep in its step, keeps a
// small frame.
func (fs *Fans) fanOut(p *sim.Proc, n int, name string, fn func(wp *sim.Proc, i int) error) error {
	s := p.Sched()
	var f *fan
	if k := len(fs.free); k > 0 {
		f = fs.free[k-1]
		fs.free = fs.free[:k-1]
		f.done.Reset()
	} else {
		f = &fan{done: sim.NewSignal(s)}
		f.leg = f.run
	}
	f.fn, f.started, f.finished = fn, 0, 0
	f.errs = append(f.errs[:0], make([]error, n)...)
	// Legs carry the caller's span: each concurrent leg attributes its
	// own waiting (phases are additive, so fan-out may sum past wall time).
	f.sp = obs.Active(p)
	for range n {
		s.Go(name, f.leg)
	}
	f.done.Wait(p)
	var err error
	for _, e := range f.errs {
		if e != nil {
			err = e
			break
		}
	}
	clear(f.errs)
	f.fn, f.sp = nil, nil
	fs.free = append(fs.free, f)
	return err
}

// run is one leg. Legs spawned at one instant start in spawn order, so
// each takes the next index on entry and one body serves all of them.
func (f *fan) run(wp *sim.Proc) {
	i := f.started
	f.started++
	obs.Activate(wp, f.sp)
	f.errs[i] = f.fn(wp, i)
	f.finished++
	if f.finished == len(f.errs) {
		f.done.Fire()
	}
}

// SpanOp is one shard's step of a striped operation: the byte range
// [off, off+n) of the file, all owned by shard, through the shard's own
// handle sh. It returns the bytes it moved.
type SpanOp func(wp *sim.Proc, shard int, sh *nas.Handle, off, n int64) (int64, error)

// Striper is the striping layer both striped clients embed: the layout,
// the table of each open name's per-shard handles, and the fan-outs that
// run a per-shard step on every shard (namespace operations), on each
// span's owning shard (data and commits), or on the shards a write left
// short of the new end of file (extend). It issues no call itself: each
// fan-out takes the per-shard step as a function (the extend step, the
// same for every write, once at construction). Client steps through
// per-shard sub-clients, the cached (O)DAFS client (internal/core)
// through per-shard replica sets behind its one block cache.
type Striper struct {
	Fans
	layout Layout
	// handles maps an open name to its per-shard handles; index 0 is the
	// canonical handle returned to the application.
	handles map[string][]*nas.Handle
	// extend is Extend's per-shard step.
	extend SpanOp
	// runs holds finished EachSpan calls' records, for reuse.
	runs []*spanRun
}

// spanRun is one EachSpan call's state: the spans, the bytes each moved,
// and the step they run. The call returns it to its Striper's free list.
type spanRun struct {
	s     *Striper
	h     *nas.Handle
	op    SpanOp
	spans []Span
	got   []int64
	leg   func(wp *sim.Proc, i int) error // r.run, bound once
}

// run is span i's leg.
func (r *spanRun) run(wp *sim.Proc, i int) error {
	sp := r.spans[i]
	g, err := r.op(wp, sp.Shard, r.s.ShardHandle(r.h, sp.Shard), sp.Off, sp.Len)
	r.got[i] = g
	return err
}

// NewStriper builds the striping layer for layout. extend is the step
// Extend runs on each lagging shard: a zero-length write at off (n is
// 0), which the servers' write path extends the file on.
func NewStriper(layout Layout, extend SpanOp) Striper {
	if err := layout.Validate(); err != nil {
		panic(err.Error())
	}
	return Striper{layout: layout, handles: make(map[string][]*nas.Handle), extend: extend}
}

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

// Resolve runs a handle-returning namespace operation (open, create) on
// every shard concurrently and records the per-shard handles under
// name; shard 0's is returned.
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
// concurrently and returns the bytes moved summed over the spans, with
// the lowest span's error. The sum counts the spans that succeeded too,
// so a caller chooses what a failed operation reports.
func (s *Striper) EachSpan(p *sim.Proc, h *nas.Handle, off, n int64, op SpanOp) (int64, error) {
	var r *spanRun
	if k := len(s.runs); k > 0 {
		r = s.runs[k-1]
		s.runs = s.runs[:k-1]
	} else {
		r = &spanRun{s: s}
		r.leg = r.run
	}
	r.h, r.op = h, op
	r.spans = s.layout.AppendSpans(r.spans[:0], off, n)
	r.got = append(r.got[:0], make([]int64, len(r.spans))...)
	var err error
	if len(r.spans) == 1 {
		err = r.run(p, 0) // in line, with no fan-out frame on the stack
	} else {
		err = s.FanOut(p, len(r.spans), "stripe-span", r.leg)
	}
	var total int64
	for _, g := range r.got {
		total += g
	}
	r.h, r.op = nil, nil
	s.runs = append(s.runs, r)
	return total, err
}

// Extend keeps the replicated size metadata coherent after a write of
// [off, off+n): a shard only grows its copy of the file to the end of
// the spans it received, so when the write extends the file every
// lagging shard (Layout.ExtendTargets) gets the extend step at the new
// end, and h.Size follows. Without this, per-shard sizes diverge and
// shard-0-sourced opens and attributes would understate the file.
func (s *Striper) Extend(p *sim.Proc, h *nas.Handle, off, n int64) error {
	end := off + n
	if end <= h.Size {
		return nil
	}
	targets := s.layout.ExtendTargets(off, n)
	err := s.FanOut(p, len(targets), "stripe-extend", func(wp *sim.Proc, i int) error {
		shard := targets[i]
		_, err := s.extend(wp, shard, s.ShardHandle(h, shard), end, 0)
		return err
	})
	if err != nil {
		return err
	}
	h.Size = end
	return nil
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
type Client struct {
	Striper
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
	c.Striper = NewStriper(layout, c.extendShard)
	return c
}

// Name implements nas.Client: the protocol name is the sub-clients'.
func (c *Client) Name() string { return c.subs[0].Name() }

// Open implements nas.Client: the file is opened on every shard
// concurrently (each shard resolves the replicated name); shard 0's
// handle is canonical.
func (c *Client) Open(p *sim.Proc, name string) (*nas.Handle, error) {
	return c.Resolve(p, name, func(wp *sim.Proc, i int) (*nas.Handle, error) {
		return c.subs[i].Open(wp, name)
	})
}

// Read implements nas.Client: the range splits into per-shard spans
// issued concurrently so all owning shards stream in parallel. A failed
// read reports 0 bytes.
func (c *Client) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	got, err := c.EachSpan(p, h, off, n, func(sp *sim.Proc, shard int, sh *nas.Handle, so, sn int64) (int64, error) {
		return c.subs[shard].Read(sp, sh, so, sn, bufID)
	})
	if err != nil {
		return 0, err
	}
	return got, nil
}

// Write implements nas.Client, splitting like Read (a failed span
// reports 0 bytes), then extending the lagging shards.
func (c *Client) Write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	got, err := c.EachSpan(p, h, off, n, func(sp *sim.Proc, shard int, sh *nas.Handle, so, sn int64) (int64, error) {
		return c.subs[shard].Write(sp, sh, so, sn, bufID)
	})
	if err != nil {
		return 0, err
	}
	return got, c.Extend(p, h, off, n)
}

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

// extendShard is the Extend step: a zero-length write at end.
func (c *Client) extendShard(wp *sim.Proc, shard int, sh *nas.Handle, end, _ int64) (int64, error) {
	return c.subs[shard].WriteData(wp, sh, end, nil)
}

// Commit implements nas.Client through CommitSpans: each sub-client runs
// its own verifier comparison, and failures aggregate into a
// *CommitError.
func (c *Client) Commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
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

// Close implements nas.Client: every shard's handle is released.
func (c *Client) Close(p *sim.Proc, h *nas.Handle) error {
	hs, ok := c.Handles(h.Name)
	if !ok {
		return c.subs[0].Close(p, h)
	}
	return c.FanOut(p, len(c.subs), "stripe-close", func(wp *sim.Proc, i int) error {
		return c.subs[i].Close(wp, hs[i])
	})
}
