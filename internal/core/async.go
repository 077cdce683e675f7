package core

import (
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/sim"
)

// asyncCached is the cached client's native nas.AsyncClient: unlike the
// generic adapter, which parks operations behind a pool of workers,
// every admitted operation starts executing immediately, as a step
// machine of its own (see op) started by a same-instant event.
// Independent operations therefore pipeline through the same block
// cache — each op's per-shard span fetches overlap with every other
// outstanding op's (the striped client already splits one op into
// concurrent spans; this makes distinct ops concurrent too), and
// fetches of the same block coalesce on the cache's inflight table
// instead of duplicating wire traffic.
type asyncCached struct {
	*Client
	nas.AsyncBase
	ops []*asyncOp // finished operations' records, for reuse
}

// asyncOp is one admitted operation, run as the client's task (an op
// record, as Client.NewTask makes); it returns to the free list when
// the operation completes.
type asyncOp struct {
	*op
	a     *asyncCached
	sub   nas.Op
	tag   uint64
	at    sim.Time
	start func() // o.begin, bound once
}

// Async returns a native asynchronous facade over the cached (O)DAFS
// client with the given queue depth.
func (c *Client) Async(depth int) nas.AsyncClient {
	a := &asyncCached{Client: c}
	a.InitAsync(depth)
	return a
}

// Submit implements nas.AsyncClient: once admitted (blocking while
// Depth ops are outstanding), the operation starts at the current
// instant.
func (a *asyncCached) Submit(p *sim.Proc, op nas.Op) uint64 {
	a.Begin(p)
	return a.Issue(op)
}

// Issue implements nas.AsyncClient.
func (a *asyncCached) Issue(op nas.Op) uint64 {
	tag, at := a.Admitted()
	var o *asyncOp
	if k := len(a.ops); k > 0 {
		o = a.ops[k-1]
		a.ops = a.ops[:k-1]
	} else {
		o = &asyncOp{op: a.newOp(), a: a}
		o.start = o.begin
	}
	o.sub, o.tag, o.at = op, tag, at
	o.j = host.Job{H: a.h, Span: op.Span, Step: o.resume}
	a.s.After(0, o.start)
	return tag
}

// begin runs the operation from its start. It starts at the admission
// instant, so there is no pickup delay to bucket as queue time — the
// span just rides along for the operation's execution.
func (o *asyncOp) begin() {
	if nas.RunOp(o.op, &o.j, &o.sub) {
		o.finish()
	}
}

// resume continues the operation where a wait ended.
func (o *asyncOp) resume() {
	o.j.Resume()
	if o.Step(&o.j) {
		o.finish()
	}
}

func (o *asyncOp) finish() {
	a := o.a
	a.Finish(nas.Completion{Tag: o.tag, Op: o.sub, N: o.got, Err: o.err, Submitted: o.at})
	o.sub = nas.Op{}
	a.ops = append(a.ops, o)
}
