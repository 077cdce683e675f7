package core

import (
	"slices"

	"danas/internal/cache"
	"danas/internal/dafs"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/stripe"
	"danas/internal/vi"
)

// op is one operation of the cached client — an open, a read, a write
// with its cache update and extend, or a block fetch — run as a step
// machine over its job (see nas.Task). A blocking method drives one
// from its caller's process (nas.Driver); the async facade
// (nas.NewAsync) drives one per admitted operation from callbacks, so
// an operation gets a process only where it really blocks (a failover,
// a replicated write, a read-ahead of several blocks, a commit). It
// drops the request's handle and name when the operation finishes.
type op struct {
	c     *Client
	kind  opKind
	stage opStage
	h     *nas.Handle
	name  string
	off   int64
	n     int64
	bufID uint64

	look   lookups // a read's lookups
	misses []int64 // the blocks a read must fetch
	bo     int64   // the written block being inserted
	f      fetch
	r      *stripe.Run

	got  int64
	hd   *nas.Handle
	err  error
	body func(p *sim.Proc) // o.blocked, bound once
}

type opKind uint8

const (
	opOpen     opKind = iota
	opRead            // lookup, then fetch the missing blocks
	opWrite           // write-through spans, then written
	opWritten         // a write whose spans are done: cache, then extend
	opFetch           // one block, coalesced
	opPopulate        // one block over RPC, uncoalesced
	opBlocked         // a commit, on a process of its own
)

type opStage uint8

const (
	opStart     opStage = iota
	opLookup            // charge the next block's lookup
	opLooked            // look the block up
	opMissed            // fetch what the lookups missed
	opFetching          // the fetch under way
	opFanning           // a fan-out under way
	opInsert            // charge the next written block's insert
	opInserted          // insert the written block
	opExtending         // the extend under way
	opDone
)

// newOp returns a fresh op record.
func (c *Client) newOp() *op {
	o := &op{c: c}
	o.f.c = c
	o.body = o.blocked
	return o
}

// begin sets o up as an operation of kind on h and runs it on j.
func (o *op) begin(j *host.Job, kind opKind, h *nas.Handle, off, n int64, bufID uint64) bool {
	o.set(j, kind, opStart, h, off, n, bufID)
	return o.Step(j)
}

// set sets o up as an operation of kind on h, at stage, charging on j.
func (o *op) set(j *host.Job, kind opKind, stage opStage, h *nas.Handle, off, n int64, bufID uint64) {
	j.H = o.c.h
	o.kind, o.stage, o.h, o.off, o.n, o.bufID = kind, stage, h, off, n, bufID
	o.got, o.hd, o.err = 0, nil, nil
}

// Open implements nas.Task (see Client.Open).
func (o *op) Open(j *host.Job, name string) bool {
	o.name = name
	return o.begin(j, opOpen, nil, 0, 0, 0)
}

// Close implements nas.Task: local under the delegation, so the lookup
// charge is all it runs.
func (o *op) Close(j *host.Job, _ *nas.Handle) bool {
	o.set(j, opOpen, opDone, nil, 0, 0, 0)
	return j.Compute(o.c.h.P.CacheLookup)
}

// Read implements nas.Task.
func (o *op) Read(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	return o.begin(j, opRead, h, off, n, bufID)
}

// Write implements nas.Task: write-through per owning shard (spans run
// concurrently, like the fetch path), updating the cached copy. With
// replication each span reaches every live copy of its shard under the
// ack policy. A failed write reports the bytes its other spans wrote.
// Once every span succeeded, the written blocks enter the cache, then
// the shards the write left short of a new end of file extend.
func (o *op) Write(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	return o.begin(j, opWrite, h, off, n, bufID)
}

// Commit implements nas.Task: a commit, on a process of its own.
func (o *op) Commit(j *host.Job, h *nas.Handle, off, n int64) bool {
	o.set(j, opBlocked, opDone, h, off, n, 0)
	return j.Run("odafs-commit", o.body) && o.Step(j)
}

// blocked is the body of an operation's process.
func (o *op) blocked(p *sim.Proc) { o.err = o.c.commit(p, o.h, o.off, o.n) }

// Result implements nas.Task.
func (o *op) Result() (int64, *nas.Handle, error) { return o.got, o.hd, o.err }

// Step implements nas.Task: it advances the operation on j.
func (o *op) Step(j *host.Job) bool {
	c := o.c
	for {
		switch o.stage {
		case opStart:
			if !o.start(j) {
				return false
			}
		case opLookup:
			o.stage = opLooked
			misses, done := o.look.run(c, j, o.misses)
			if o.misses = misses; !done {
				return false
			}
			o.stage = opMissed
		case opLooked:
			o.misses, o.stage = o.look.next(c, o.misses), opLookup
		case opMissed:
			switch misses := o.misses; len(misses) {
			case 0:
				o.got, o.stage = o.look.end-o.off, opDone
			case 1: // fetched in line, with no fan-out closure to allocate
				o.stage = opFetching
				if !o.f.start(j, o.h, misses[0], false) {
					return false
				}
			default:
				// Internal read-ahead: fetch all missing blocks
				// concurrently, each fetch process carrying the
				// requesting operation's span.
				blocks, h := slices.Clone(misses), o.h
				o.r = c.Fanning("fetch", len(blocks), func(fp *sim.Proc, i int) error {
					return c.fetchBlock(fp, opFetch, h, blocks[i])
				})
				o.stage = opFanning
			}
		case opFetching:
			if !o.f.step(j) {
				return false
			}
			o.fetched(o.f.err)
		case opFanning:
			if !o.r.Step(j) {
				return false
			}
			r := o.r
			o.r = nil
			switch o.kind {
			case opOpen:
				o.hd, o.err = r.Handle()
				o.stage = opDone
			case opWrite:
				o.got, o.err = r.Total()
				o.bo, o.stage = c.c.Align(o.off), opInsert
				if o.err != nil {
					o.stage = opDone
				}
			default:
				o.fetched(r.Err())
			}
			r.Release()
		case opInsert:
			if o.bo >= o.off+o.n {
				o.r, o.stage = c.Extending(o.h, o.off, o.n), opExtending
				break
			}
			o.stage = opInserted
			if !j.Compute(c.h.P.CacheInsert) {
				return false
			}
		case opInserted:
			c.c.Insert(o.h.FH, o.bo, c.cfg.BlockSize, cache.RemoteRef{})
			o.bo += c.cfg.BlockSize
			o.stage = opInsert
		case opExtending:
			if !o.r.Step(j) {
				return false
			}
			o.err = o.r.Err()
			o.r.Release()
			o.r, o.stage = nil, opDone
		case opDone:
			o.h, o.name = nil, ""
			return true
		}
	}
}

// lookups is a read's lookup stage over the blocks of [bo, end): each
// block's lookup is charged, then made, counting a hit or noting a
// miss. A blocking read runs it on its caller's job before it takes an
// op record, so a read the cache satisfies needs none.
type lookups struct {
	fh      uint64
	bo, end int64
}

// readLookups returns the lookups of a read of [off, off+n) of h, and
// false if the read is empty.
func (c *Client) readLookups(h *nas.Handle, off, n int64) (lookups, bool) {
	end := min(off+n, h.Size)
	if n <= 0 || off >= end {
		return lookups{}, false
	}
	return lookups{fh: h.FH, bo: c.c.Align(off), end: end}, true
}

// run makes the remaining lookups on j, appending the blocks they miss
// to misses, which it returns. It reports false if a charge waits; once
// j.Step is called, next makes that block's lookup, and run goes on.
// (The misses pass by value so that a blocking read's stay on its
// stack.)
func (l *lookups) run(c *Client, j *host.Job, misses []int64) ([]int64, bool) {
	for l.bo < l.end {
		if !j.Compute(c.h.P.CacheLookup) {
			return misses, false
		}
		misses = l.next(c, misses)
	}
	return misses, true
}

// next looks the block at bo up, appending it to misses if it misses,
// and moves on to the next block.
func (l *lookups) next(c *Client, misses []int64) []int64 {
	if _, hit := c.c.Lookup(l.fh, l.bo); hit {
		c.stats.LocalHits++
	} else {
		misses = append(misses, l.bo)
	}
	l.bo += c.cfg.BlockSize
	return misses
}

// start runs an operation's first stage.
func (o *op) start(j *host.Job) bool {
	c := o.c
	switch o.kind {
	case opOpen:
		if h, ok := c.delegated(o.name); ok {
			o.hd, o.stage = h, opDone
			return j.Compute(c.h.P.CacheLookup)
		}
		o.r, o.stage = c.Opening(o.name), opFanning
	case opRead:
		l, ok := c.readLookups(o.h, o.off, o.n)
		if !ok {
			o.stage = opDone
			return true
		}
		o.look, o.misses, o.stage = l, o.misses[:0], opLookup
	case opWrite:
		o.r, o.stage = c.Spanning(o.h, nas.OpWrite, o.off, o.n, o.bufID), opFanning
	case opWritten:
		if o.err != nil {
			o.stage = opDone
			return true
		}
		o.bo, o.stage = c.c.Align(o.off), opInsert
	case opFetch, opPopulate:
		o.stage = opFetching
		return o.f.start(j, o.h, o.off, o.kind == opPopulate)
	}
	return true
}

// fetched ends a read, or a fetch, whose missing blocks were fetched
// with err.
func (o *op) fetched(err error) {
	o.err, o.stage = err, opDone
	if o.kind == opRead && err == nil {
		o.got = o.look.end - o.off
	}
}

// fetch brings one block into the cache, a step machine over a job:
// ORDMA when the directory knows where the block lives on the owning
// shard, RPC otherwise — with the client always prepared to catch an
// exception and recover via RPC (§4.2 principle (c)). Concurrent
// fetches of the same block coalesce: later ones wait for the first and
// inherit its outcome — including its error, so a failed fetch under a
// crashed shard is reported by every coalesced reader instead of being
// silently swallowed.
type fetch struct {
	c     *Client
	stage fetchStage
	h     *nas.Handle
	off   int64
	len   int64
	key   cache.Key
	f     *inflightFetch
	alone bool            // an RPC population, outside the coalescing table
	ref   cache.RemoteRef // by value: VA 0 for none
	rdma  vi.RDMAOp
	set   *stripe.Set[*dafs.Client]
	copy  int
	sh    *nas.Handle
	dt    dafs.Task
	err   error
	body  func(p *sim.Proc) // f.failover, bound once
}

type fetchStage uint8

const (
	fetchJoined     fetchStage = iota // coalesced onto another fetch
	fetchGetting                      // the ORDMA get under way
	fetchGot                          // the get completed
	fetchRPC                          // populate over RPC
	fetchReading                      // the RPC read under way
	fetchRead                         // the RPC read answered
	fetchCopied                       // an inline read's copy is charged
	fetchFailedOver                   // the failover process is done
	fetchInsert                       // charge the cache insert
	fetchInserted                     // insert the block
	fetchDone                         // end the fetch
	fetchEnded                        // ended: Step reports true again
)

// start begins fetching the block at off of h on j; alone skips the
// directory and the coalescing table (PopulateDirectory's walk).
func (f *fetch) start(j *host.Job, h *nas.Handle, off int64, alone bool) bool {
	c := f.c
	f.h, f.off, f.alone, f.ref, f.err = h, off, alone, cache.RemoteRef{}, nil
	f.len = min(c.cfg.BlockSize, h.Size-off)
	if alone {
		f.stage = fetchRPC
		return f.step(j)
	}
	f.key = cache.Key{File: h.FH, Off: c.c.Align(off)}
	if in, busy := c.inflight[f.key]; busy {
		f.f = in
		in.waiters++
		f.stage = fetchJoined
		if !j.Wait(in.sig) {
			return false
		}
		return f.step(j)
	}
	if k := len(c.fetches); k > 0 {
		f.f = c.fetches[k-1]
		c.fetches = c.fetches[:k-1]
		f.f.sig.Reset()
	} else {
		f.f = &inflightFetch{sig: sim.NewSignal(j.Sched())}
	}
	c.inflight[f.key] = f.f
	f.stage = fetchRPC
	if c.cfg.UseORDMA {
		if ref := c.c.RefOf(h.FH, off); ref.VA != 0 {
			shard := c.Layout().ShardOf(off)
			if ref.Epoch != c.shards[shard].Failovers {
				// The reference was exported by a copy this shard has
				// since failed away from: its VA may alias a different
				// block in the survivor's export space, so it must never
				// touch the wire. Drop it and repopulate over RPC.
				c.c.DropRef(h.FH, off)
				return f.step(j)
			}
			c.stats.ORDMAReads++
			f.ref, f.stage = ref, fetchGot
			if !c.shards[shard].Current().QP().RDMAThen(j, &f.rdma, nic.Get, ref.VA, min(f.len, ref.Len), ref.Cap) {
				f.stage = fetchGetting
				return false
			}
		}
	}
	return f.step(j)
}

// step advances the fetch on j.
func (f *fetch) step(j *host.Job) bool {
	c := f.c
	for {
		switch f.stage {
		case fetchJoined:
			f.f.waiters--
			f.err = c.doneFetch(f.f)
			f.f, f.h, f.stage = nil, nil, fetchEnded
			return true
		case fetchGetting:
			if !f.rdma.Step(j) {
				return false
			}
			f.stage = fetchGot
		case fetchGot:
			if f.rdma.Result.OK() {
				c.stats.ORDMASuccesses++
				f.stage = fetchInsert
				break
			}
			// Recoverable NIC-to-NIC exception: drop the stale reference
			// and retry over RPC, which returns a fresh one.
			c.stats.ORDMAFaults++
			c.c.DropRef(f.h.FH, f.off)
			f.ref, f.stage = cache.RemoteRef{}, fetchRPC
		case fetchRPC:
			// Populate over the owning shard's DAFS RPC path; a
			// retry-exhausted serving copy triggers failover and the
			// fetch retries on the survivor.
			c.stats.RPCReads++
			shard := c.Layout().ShardOf(f.off)
			f.set, f.sh = c.shards[shard], c.ShardHandle(f.h, shard)
			f.copy = f.set.Serving()
			f.stage = fetchRead
			if !f.set.Current().ReadThen(j, &f.dt, f.sh, f.off, f.len, arenaBufID, c.transfer) {
				f.stage = fetchReading
				return false
			}
		case fetchReading:
			if !f.dt.Step(j) {
				return false
			}
			f.stage = fetchRead
		case fetchRead:
			f.stage = fetchCopied
			if f.dt.Err == nil && c.cfg.InlineRPC {
				// Copy from the communication buffer into the cache block.
				if !j.Compute(c.h.CopyCost(f.len)) {
					return false
				}
			}
		case fetchCopied:
			f.ref, f.err = f.dt.Ref, f.dt.Err
			if f.err != nil && f.set.Fails(f.err) {
				f.stage = fetchFailedOver
				if f.body == nil {
					f.body = f.failover
				}
				if !j.Run("odafs-failover", f.body) {
					return false
				}
				break
			}
			f.stage = fetchFailedOver
		case fetchFailedOver:
			if f.err != nil {
				f.stage = fetchDone
				break
			}
			if f.ref.VA != 0 {
				f.ref.Epoch = f.set.Failovers
			}
			f.stage = fetchInsert
		case fetchInsert:
			// Filling a block whose header already exists (the common
			// second-pass case) is a flag flip; populating a fresh header
			// pays the full allocation and hash/LRU maintenance cost.
			cost := c.h.P.CacheInsert
			if c.c.Has(f.h.FH, f.off) {
				cost = c.h.P.CacheLookup
			}
			f.stage = fetchInserted
			if !j.Compute(cost) {
				return false
			}
		case fetchInserted:
			c.c.Insert(f.h.FH, f.off, f.len, f.ref)
			f.stage = fetchDone
		case fetchDone:
			f.h, f.set, f.sh, f.ref, f.stage = nil, nil, nil, cache.RemoteRef{}, fetchEnded
			if f.alone {
				return true
			}
			delete(c.inflight, f.key)
			f.f.err = f.err
			f.f.sig.Fire()
			f.err = c.doneFetch(f.f)
			f.f = nil
			return true
		case fetchEnded:
			return true
		}
	}
}

// failover runs the RPC read's failover and its retries on the
// survivors (stripe.Set.Retry), on a process of its own.
func (f *fetch) failover(p *sim.Proc) {
	c, sh, off, n := f.c, f.sh, f.off, f.len
	var ref cache.RemoteRef
	f.err = f.set.Retry(p, f.err, f.copy, func(wp *sim.Proc, _ int, inner *dafs.Client) error {
		var err error
		if c.cfg.InlineRPC {
			_, ref, err = inner.ReadInline(wp, sh, off, n)
			if err == nil {
				c.h.Compute(wp, c.h.CopyCost(n))
			}
		} else {
			_, ref, err = inner.ReadDirect(wp, sh, off, n, arenaBufID)
		}
		return err
	})
	f.ref = ref
}

// doneFetch returns a finished fetch's result, recycling its record
// once no coalesced fetch is left to read it.
func (c *Client) doneFetch(f *inflightFetch) error {
	err := f.err
	if f.waiters == 0 {
		f.err = nil
		c.fetches = append(c.fetches, f)
	}
	return err
}

// ShardTask implements stripe.Shards: the shard's replica set's task,
// an open on the serving copy's DAFS session as a step machine, failing
// over on a process, and a write span write-through to the shard,
// reaching every live copy of a replicated shard on a process.
func (c *Client) ShardTask(shard int) nas.Task { return c.shards[shard].NewTask() }
