package stripe

import (
	"fmt"

	"danas/internal/nas"
	"danas/internal/obs"
	"danas/internal/sim"
)

// FanOut runs fn for indexes 0..n-1 as concurrent simulated processes
// and returns the lowest-index error. With n <= 1 it runs in-line on the
// caller's process, so single-shard paths cost exactly what they did
// unstriped. Both the striped clients' namespace fan-outs and their
// per-shard data spans use it.
func FanOut(p *sim.Proc, n int, name string, fn func(wp *sim.Proc, i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return fn(p, 0)
	}
	s := p.Sched()
	done := sim.NewSignal(s)
	errs := make([]error, n)
	remaining := n
	// Workers carry the caller's span: each concurrent leg attributes its
	// own waiting (phases are additive, so fan-out may sum past wall time).
	sp := obs.Active(p)
	for i := 0; i < n; i++ {
		i := i
		s.Go(name, func(wp *sim.Proc) {
			obs.Activate(wp, sp)
			errs[i] = fn(wp, i)
			remaining--
			if remaining == 0 {
				done.Fire()
			}
		})
	}
	done.Wait(p)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Client stripes a nas.Client over per-shard sub-clients: namespace
// operations (open, create, remove, close) fan out to every shard
// concurrently, data operations split into per-shard spans that also run
// concurrently. It carries no client cache of its own, which makes it the
// striping layer for the RPC-based systems (the three NFS variants and
// the raw DAFS session client); the cached (O)DAFS client routes shards
// itself so a single block cache can front all of them (internal/core).
type Client struct {
	layout Layout
	subs   []nas.Client
	// handles maps an open name to its per-shard handles; index 0 is the
	// canonical handle returned to the application.
	handles map[string][]*nas.Handle
}

var _ nas.Client = (*Client)(nil)

// NewClient stripes the given per-shard sub-clients (one per layout
// shard, in shard order) under one nas.Client.
func NewClient(layout Layout, subs []nas.Client) *Client {
	if err := layout.Validate(); err != nil {
		panic(err.Error())
	}
	if len(subs) != layout.Shards {
		panic(fmt.Sprintf("stripe: %d sub-clients for %d shards", len(subs), layout.Shards))
	}
	return &Client{layout: layout, subs: subs, handles: make(map[string][]*nas.Handle)}
}

// Layout returns the striping scheme.
func (c *Client) Layout() Layout { return c.layout }

// Sub returns the shard i sub-client.
func (c *Client) Sub(i int) nas.Client { return c.subs[i] }

// Name implements nas.Client: the protocol name is the sub-clients'.
func (c *Client) Name() string { return c.subs[0].Name() }

// Open implements nas.Client: the file is opened on every shard
// concurrently (each shard resolves the replicated name); shard 0's
// handle is canonical.
func (c *Client) Open(p *sim.Proc, name string) (*nas.Handle, error) {
	hs := make([]*nas.Handle, len(c.subs))
	err := FanOut(p, len(c.subs), "stripe-open", func(wp *sim.Proc, i int) error {
		h, err := c.subs[i].Open(wp, name)
		hs[i] = h
		return err
	})
	if err != nil {
		return nil, err
	}
	c.handles[name] = hs
	return hs[0], nil
}

// shardHandle resolves the per-shard handle for h, falling back to h
// itself (correct when every shard assigned identical handles, which a
// replicated namespace with identical creation order guarantees).
func (c *Client) shardHandle(h *nas.Handle, shard int) *nas.Handle {
	if hs, ok := c.handles[h.Name]; ok && shard < len(hs) {
		return hs[shard]
	}
	return h
}

// Read implements nas.Client: the range splits into per-shard spans
// issued concurrently so all owning shards stream in parallel.
func (c *Client) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	return c.io(p, h, off, n, func(sp *sim.Proc, shard int, sh *nas.Handle, so, sn int64) (int64, error) {
		return c.subs[shard].Read(sp, sh, so, sn, bufID)
	})
}

// Write implements nas.Client, splitting like Read.
func (c *Client) Write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	got, err := c.io(p, h, off, n, func(sp *sim.Proc, shard int, sh *nas.Handle, so, sn int64) (int64, error) {
		return c.subs[shard].Write(sp, sh, so, sn, bufID)
	})
	if err != nil {
		return got, err
	}
	if err := c.extendReplicas(p, h, off, n); err != nil {
		return got, err
	}
	return got, nil
}

// extendReplicas keeps the replicated size metadata coherent after a
// write ending at off+n: a shard only grows its replica to the end of
// the spans it received, so when the write extends the file every
// lagging shard gets a zero-length write at the new end (the servers'
// write path extends on Offset beyond EOF). Without this, per-shard
// sizes diverge and shard-0-sourced Open/Getattr would understate the
// file.
func (c *Client) extendReplicas(p *sim.Proc, h *nas.Handle, off, n int64) error {
	end := off + n
	if end <= h.Size {
		return nil
	}
	targets := c.layout.ExtendTargets(off, n)
	err := FanOut(p, len(targets), "stripe-extend", func(wp *sim.Proc, i int) error {
		shard := targets[i]
		_, err := c.subs[shard].WriteData(wp, c.shardHandle(h, shard), end, nil)
		return err
	})
	if err != nil {
		return err
	}
	h.Size = end
	return nil
}

// io runs one span operation per owning shard concurrently and sums the
// bytes moved.
func (c *Client) io(p *sim.Proc, h *nas.Handle, off, n int64,
	op func(sp *sim.Proc, shard int, sh *nas.Handle, so, sn int64) (int64, error)) (int64, error) {
	spans := c.layout.Spans(off, n)
	got := make([]int64, len(spans))
	err := FanOut(p, len(spans), "stripe-span", func(wp *sim.Proc, i int) error {
		sp := spans[i]
		g, err := op(wp, sp.Shard, c.shardHandle(h, sp.Shard), sp.Off, sp.Len)
		got[i] = g
		return err
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, g := range got {
		total += g
	}
	return total, nil
}

// WriteData implements nas.Client: each shard receives its spans' bytes,
// concurrently like every other data operation.
func (c *Client) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	spans := c.layout.Spans(off, int64(len(data)))
	got := make([]int64, len(spans))
	err := FanOut(p, len(spans), "stripe-wspan", func(wp *sim.Proc, i int) error {
		sp := spans[i]
		g, err := c.subs[sp.Shard].WriteData(wp, c.shardHandle(h, sp.Shard), sp.Off,
			data[sp.Off-off:sp.Off-off+sp.Len])
		got[i] = g
		return err
	})
	var total int64
	for _, g := range got {
		total += g
	}
	if err != nil {
		return total, err
	}
	if err := c.extendReplicas(p, h, off, int64(len(data))); err != nil {
		return total, err
	}
	return total, nil
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

// Commit implements nas.Client, fanning the commit out per shard along
// the stripe layout: a whole-file commit (n <= 0) reaches every shard, a
// range commit only the shards owning its spans. Each sub-client runs
// its own verifier comparison and re-issues its own lost writes — which
// is why every shard is always attempted: an early return on the first
// failure would leave later shards' lost ranges neither committed nor
// re-issued. Failures aggregate into a *CommitError.
func (c *Client) Commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	if n <= 0 {
		return c.commitAll(p, len(c.subs), func(i int) int { return i }, func(wp *sim.Proc, i int) error {
			return c.subs[i].Commit(wp, c.shardHandle(h, i), 0, 0)
		})
	}
	spans := c.layout.Spans(off, n)
	return c.commitAll(p, len(spans), func(i int) int { return spans[i].Shard }, func(wp *sim.Proc, i int) error {
		sp := spans[i]
		return c.subs[sp.Shard].Commit(wp, c.shardHandle(h, sp.Shard), sp.Off, sp.Len)
	})
}

// commitAll runs one commit per target concurrently, collecting every
// failure instead of surfacing only the first: FanOut already runs all
// branches to completion, so the collection happens in the branches and
// the aggregate is built after the barrier.
func (c *Client) commitAll(p *sim.Proc, n int, shardOf func(i int) int, fn func(wp *sim.Proc, i int) error) error {
	errs := make([]error, n)
	FanOut(p, n, "stripe-commit", func(wp *sim.Proc, i int) error {
		errs[i] = fn(wp, i)
		return nil
	})
	agg := &CommitError{}
	for i, err := range errs {
		if err != nil {
			agg.Shards = append(agg.Shards, shardOf(i))
			agg.Errs = append(agg.Errs, err)
		}
	}
	if len(agg.Errs) == 0 {
		return nil
	}
	return agg
}

// Getattr implements nas.Client: attributes come from shard 0 (the
// namespace is replicated; extendReplicas keeps sizes agreeing).
func (c *Client) Getattr(p *sim.Proc, h *nas.Handle) (int64, error) {
	return c.subs[0].Getattr(p, c.shardHandle(h, 0))
}

// Create implements nas.Client: the name is created on every shard
// concurrently.
func (c *Client) Create(p *sim.Proc, name string) (*nas.Handle, error) {
	hs := make([]*nas.Handle, len(c.subs))
	err := FanOut(p, len(c.subs), "stripe-create", func(wp *sim.Proc, i int) error {
		h, err := c.subs[i].Create(wp, name)
		hs[i] = h
		return err
	})
	if err != nil {
		return nil, err
	}
	c.handles[name] = hs
	return hs[0], nil
}

// Remove implements nas.Client: the name is removed from every shard.
func (c *Client) Remove(p *sim.Proc, name string) error {
	delete(c.handles, name)
	return FanOut(p, len(c.subs), "stripe-remove", func(wp *sim.Proc, i int) error {
		return c.subs[i].Remove(wp, name)
	})
}

// Close implements nas.Client: every shard's handle is released.
func (c *Client) Close(p *sim.Proc, h *nas.Handle) error {
	hs, ok := c.handles[h.Name]
	if !ok {
		return c.subs[0].Close(p, h)
	}
	return FanOut(p, len(c.subs), "stripe-close", func(wp *sim.Proc, i int) error {
		return c.subs[i].Close(wp, hs[i])
	})
}
