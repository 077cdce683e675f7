package core

import (
	"danas/internal/nas"
	"danas/internal/obs"
	"danas/internal/sim"
)

// asyncCached is the cached client's native nas.AsyncClient: unlike the
// generic adapter, which parks operations behind a pool of worker
// processes, every admitted operation starts executing immediately on
// its own process. Independent operations therefore pipeline through
// the same block cache — each op's per-shard span fetches overlap with
// every other outstanding op's (the striped client already splits one
// op into concurrent spans; this makes distinct ops concurrent too),
// and fetches of the same block coalesce on the cache's inflight table
// instead of duplicating wire traffic.
type asyncCached struct {
	*Client
	nas.AsyncBase
	ops []*asyncOp // finished operations' records, for reuse
}

// asyncOp is one admitted operation, run by the process Submit spawns;
// its body returns it to the free list when the operation completes.
type asyncOp struct {
	a    *asyncCached
	op   nas.Op
	tag  uint64
	at   sim.Time
	body func(wp *sim.Proc) // o.run, bound once
}

// Async returns a native asynchronous facade over the cached (O)DAFS
// client with the given queue depth.
func (c *Client) Async(depth int) nas.AsyncClient {
	a := &asyncCached{Client: c}
	a.InitAsync(depth)
	return a
}

// Submit implements nas.AsyncClient: once admitted (blocking while
// Depth ops are outstanding), the operation runs on a fresh process at
// the current instant.
func (a *asyncCached) Submit(p *sim.Proc, op nas.Op) uint64 {
	tag, at := a.Begin(p)
	var o *asyncOp
	if k := len(a.ops); k > 0 {
		o = a.ops[k-1]
		a.ops = a.ops[:k-1]
	} else {
		o = &asyncOp{a: a}
		o.body = o.run
	}
	o.op, o.tag, o.at = op, tag, at
	p.Sched().Go("odafs-async", o.body)
	return tag
}

// run executes the operation. The fresh process starts at the admission
// instant, so there is no pickup delay to bucket as queue time — the
// span just rides along for the operation's execution.
func (o *asyncOp) run(wp *sim.Proc) {
	a := o.a
	obs.Activate(wp, o.op.Span)
	n, err := o.op.Run(wp, a.Client)
	a.Finish(nas.Completion{Tag: o.tag, Op: o.op, N: n, Err: err, Submitted: o.at})
	o.op = nas.Op{}
	a.ops = append(a.ops, o)
}
