// Package core implements the paper's primary contribution: Optimistic
// RDMA and the Optimistic Direct Access File System (§4).
//
// ORDMA is client-initiated RDMA without per-I/O buffer advertisement.
// The mechanism splits across layers exactly as it did in the prototype:
//
//   - the server NIC validates translations, residency, locks and
//     (optionally) capability MACs, and reports failures as NIC-to-NIC
//     exceptions (internal/nic);
//   - exceptions surface as recoverable transport errors in VI descriptor
//     status (internal/vi);
//   - the DAFS server, when optimistic, exports its file cache blocks in a
//     private 64-bit address space and piggybacks remote memory references
//     on read replies (internal/dafs with Optimistic=true);
//   - this package supplies the ODAFS client: a user-level file cache
//     whose block headers double as the ORDMA reference directory, issuing
//     client-initiated gets for cache misses whose server location is
//     known, and falling back to RPC — collecting a fresh reference — when
//     the optimism fails (§4.2 principles (a)–(c)).
//
// The same cache layer with ORDMA disabled is the plain cached-DAFS client
// the paper compares against in Table 3, Figure 6 and Figure 7.
//
// The client also scales past one server: NewReplicatedClient mounts the
// same cache over a fleet of DAFS servers striped by block range, each
// shard optionally a replica set. The striping itself is the shared
// stripe.Striper the RPC clients use too (layout, per-shard handles, and
// the namespace, span, extend and commit fan-outs); this package keeps
// only what is its own: the block cache, fetch coalescing, ORDMA
// reference routing with its failover epochs, and open delegations.
// There is still a single client-side block cache; the reference
// directory partitions into per-shard directories by construction,
// because a block's offset statically determines the shard whose export
// space its reference points into, so every ORDMA get is issued on the
// owning shard's session.
package core

import (
	"fmt"

	"danas/internal/cache"
	"danas/internal/dafs"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/stripe"
)

// arenaBufID identifies the cache's registered block arena in the
// registration cache: one pinned region reused by every block fetch, so no
// per-I/O registration happens on the cached path.
const arenaBufID = 1<<63 - 1

// Config shapes the client cache and the ODAFS behaviour.
type Config struct {
	// BlockSize is the client cache block size (Fig. 6 uses 4 KB; Fig. 7
	// sweeps it).
	BlockSize int64
	// DataBlocks is the number of blocks holding data.
	DataBlocks int
	// Headers is the total header population — the reach of the ORDMA
	// reference directory (§4.2.1: "many more empty headers than data
	// blocks", ideally enough to map the server's whole file cache).
	Headers int
	// UseORDMA enables client-initiated RDMA on directory hits: true for
	// ODAFS, false for the plain cached DAFS baseline.
	UseORDMA bool
	// InlineRPC uses in-line RPC reads on the fallback/population path
	// instead of server-initiated RDMA (Table 3's "RPC in-line read").
	InlineRPC bool
	// MQDirectory selects multi-queue replacement for the header
	// population instead of LRU (§4.2's suggestion; ablation A3).
	MQDirectory bool
}

// Stats counts ODAFS-specific outcomes.
type Stats struct {
	LocalHits      uint64 // satisfied entirely in the client cache
	ORDMAReads     uint64 // client-initiated gets attempted
	ORDMASuccesses uint64
	ORDMAFaults    uint64 // NIC-to-NIC exceptions caught and recovered
	RPCReads       uint64 // reads that went over RPC (population/fallback)
	LocalOpens     uint64 // opens satisfied by an open delegation
}

// Client is the cached (O)DAFS client: one block cache fronting one DAFS
// session per shard — per serving copy when the shards are replicated.
type Client struct {
	// Striper routes the namespace, span, extend and commit fan-outs.
	// Its handle table doubles as the open delegations: a name with
	// recorded per-shard handles opens, closes and stats locally.
	stripe.Striper

	// The embedded driver runs the blocking Write and Commit, and the
	// opens and reads the fast paths leave, over the client's op.
	nas.Driver[*Client, *op]

	// shards holds each shard's replica set (width 1 when unreplicated):
	// the copy sessions, live view, ack policy and failover. Every
	// read/stat path uses the set's serving session, so it follows
	// failover without knowing about replication; and directory
	// references are stamped with the set's failover count, so a
	// failover voids every reference into the dead copy's export space
	// (its VAs may alias different blocks on the survivor) and ORDMA
	// re-establishes cold over RPC.
	shards []*stripe.Set[*dafs.Client]
	h      *host.Host
	c      *cache.Cache
	cfg    Config

	// inflight coalesces concurrent fetches of the same block: later
	// readers wait for the first fetch instead of duplicating it, and
	// inherit its outcome — including its error, so a failed fetch under
	// a crashed shard is reported by every coalesced reader instead of
	// being silently swallowed.
	inflight map[cache.Key]*inflightFetch
	fetches  []*inflightFetch // finished fetches' records, for reuse

	stats Stats

	// Replica copies are mounted lazily — they connect cold at the first
	// replicated write or at failover — with retry armed at mount from
	// the stored config (a session that cannot time out can never
	// trigger failover).
	s         *sim.Scheduler
	clientNIC *nic.NIC
	mode      nic.NotifyMode
	transfer  dafs.TransferMode

	retryTimeout sim.Duration
	retryBudget  int
	rdmaTimeout  sim.Duration
}

// inflightFetch is one in-progress block fetch on the coalescing table.
// The fetch that made it returns it to the client's free list once the
// fetch and every fetch coalesced onto it have read its result.
type inflightFetch struct {
	sig     *sim.Signal
	err     error
	waiters int // coalesced fetches yet to read err
}

var _ nas.Client = (*Client)(nil)

// NewClient mounts a cached client on clientNIC against a single srv. For
// ODAFS semantics the server must have been created optimistic; a
// non-optimistic server simply never piggybacks references, so UseORDMA
// degenerates to DAFS (every miss is an RPC).
func NewClient(s *sim.Scheduler, clientNIC *nic.NIC, srv *dafs.Server, mode nic.NotifyMode, cfg Config) *Client {
	return NewReplicatedClient(s, clientNIC, [][]*dafs.Server{{srv}}, mode, cfg, stripe.Single(), stripe.AckSync)
}

// NewReplicatedClient mounts a cached client over a fleet of DAFS
// servers: servers[shard][copy], one shard per layout shard and
// layout.Width() copies each, copy 0 the primary. Block fetches route to
// the shard owning the block's offset; the client cache is shared across
// shards, and a remote reference installed from shard i's reply is only
// ever exercised against shard i because the layout is static. Only the
// primaries are mounted eagerly, so with one copy per shard this is the
// plain striped client. Writes reach every live copy of the owning shard
// under the ack policy; when retry against a serving copy exhausts, the
// shard fails over to the next live copy, re-issuing uncommitted ranges
// there and voiding the dead copy's ORDMA references by epoch.
func NewReplicatedClient(s *sim.Scheduler, clientNIC *nic.NIC, servers [][]*dafs.Server, mode nic.NotifyMode, cfg Config, layout stripe.Layout, policy stripe.AckPolicy) *Client {
	if cfg.BlockSize <= 0 || cfg.DataBlocks <= 0 {
		panic("core: config needs positive block size and data capacity")
	}
	if err := layout.Validate(); err != nil {
		panic(err.Error())
	}
	if len(servers) != layout.Shards {
		panic(fmt.Sprintf("core: %d servers for %d shards", len(servers), layout.Shards))
	}
	if layout.Shards > 1 && layout.Unit%cfg.BlockSize != 0 {
		panic(fmt.Sprintf("core: stripe unit %d not a multiple of cache block size %d", layout.Unit, cfg.BlockSize))
	}
	if cfg.Headers < cfg.DataBlocks {
		cfg.Headers = cfg.DataBlocks
	}
	var opts []cache.Option
	if cfg.MQDirectory {
		opts = append(opts, cache.WithPolicies(cache.NewLRU(), cache.NewMQ(8, uint64(4*cfg.Headers))))
	}
	transfer := dafs.Direct
	if cfg.InlineRPC {
		transfer = dafs.Inline
	}
	c := &Client{
		shards:    make([]*stripe.Set[*dafs.Client], len(servers)),
		h:         clientNIC.Host(),
		c:         cache.New(cfg.BlockSize, cfg.DataBlocks, cfg.Headers, opts...),
		cfg:       cfg,
		inflight:  make(map[cache.Key]*inflightFetch),
		s:         s,
		clientNIC: clientNIC,
		mode:      mode,
		transfer:  transfer,
	}
	c.Striper = stripe.NewStriper(layout, c)
	c.Driver = nas.NewDriver(c, (*Client).newOp)
	for i, copies := range servers {
		if len(copies) != layout.Width() {
			panic(fmt.Sprintf("core: shard %d has %d copies for width %d", i, len(copies), layout.Width()))
		}
		var mount func(cp int) *dafs.Client // a lone copy never mounts another
		if len(copies) > 1 {
			mount = func(cp int) *dafs.Client { return c.mount(copies[cp]) }
		}
		c.shards[i] = stripe.NewSet(policy, len(copies), []*dafs.Client{c.mount(copies[0])}, mount)
	}
	return c
}

// mount opens a session to srv, armed with the stored retry and RDMA
// timeout config: a session mounted after SetRetry ran (failover mounts
// these) must still time out on a dead copy rather than hang.
func (c *Client) mount(srv *dafs.Server) *dafs.Client {
	in := dafs.NewClient(c.s, c.clientNIC, srv, c.mode, c.transfer)
	if c.retryTimeout > 0 {
		in.SetRetry(c.retryTimeout, c.retryBudget)
	}
	if c.rdmaTimeout > 0 {
		in.SetRDMATimeout(c.rdmaTimeout)
	}
	return in
}

// SetRetry configures session retransmission on every shard's DAFS
// session (see dafs.Client.SetRetry): a crashed shard surfaces as
// nas.ErrTimeout after bounded backoff instead of hanging a fetch. The
// config is also stored so sessions mounted later (replica failover
// creates these) arm it at construction instead of starting with a
// zero budget.
func (c *Client) SetRetry(timeout sim.Duration, maxRetries int) {
	c.retryTimeout, c.retryBudget = timeout, maxRetries
	c.eachSession(func(in *dafs.Client) { in.SetRetry(timeout, maxRetries) })
}

// SetRDMATimeout bounds direct-access descriptors on every session QP
// (stored, like the retry config, so later-mounted failover sessions
// arm it too). Needed on multi-leaf fabrics, where a down switch can
// black-hole a get's frames: the descriptor then completes with
// nic.StatusTimeout and the fetch falls back to RPC.
func (c *Client) SetRDMATimeout(d sim.Duration) {
	c.rdmaTimeout = d
	c.eachSession(func(in *dafs.Client) { in.SetRDMATimeout(d) })
}

// eachSession visits every mounted DAFS session, shard by shard and copy
// by copy, dead ones included (their counters still count).
func (c *Client) eachSession(fn func(*dafs.Client)) {
	for _, set := range c.shards {
		set.Mounted(fn)
	}
}

// Retries sums session-layer retransmissions across every shard session
// — the transparently absorbed part of a fault.
func (c *Client) Retries() uint64 {
	var n uint64
	c.eachSession(func(in *dafs.Client) { n += in.Retransmits })
	return n
}

// TimedOuts counts session calls that exhausted their retry budget and
// failed, summed across every mounted session.
func (c *Client) TimedOuts() uint64 {
	var n uint64
	c.eachSession(func(in *dafs.Client) { n += in.TimedOut })
	return n
}

// Failovers counts serving-copy switches across the shards (zero on
// unreplicated clients).
func (c *Client) Failovers() uint64 {
	var n uint64
	for _, set := range c.shards {
		n += set.Failovers
	}
	return n
}

// Reissued counts the uncommitted ranges failover re-wrote onto
// surviving copies across the shards.
func (c *Client) Reissued() uint64 {
	var n uint64
	for _, set := range c.shards {
		n += set.Reissued
	}
	return n
}

// Name implements nas.Client.
func (c *Client) Name() string {
	if c.cfg.UseORDMA {
		return "ODAFS"
	}
	return "DAFS"
}

// Async returns an asynchronous facade over the client with the given
// queue depth: every admitted operation runs as a task of its own, so
// independent operations pipeline through the one block cache.
func (c *Client) Async(depth int) nas.AsyncClient { return nas.NewAsync(c, depth) }

// Stats returns a copy of the counters.
func (c *Client) Stats() Stats { return c.stats }

// CacheStats exposes the underlying block cache counters.
func (c *Client) CacheStats() cache.Stats { return c.c.Stats() }

// Inner returns the underlying DAFS session client for shard 0.
func (c *Client) Inner() *dafs.Client { return c.shards[0].Current() }

// Open implements nas.Client. After the first open of a file — which
// resolves it on every shard's serving copy — the servers grant an open
// delegation, so subsequent opens and closes are satisfied locally
// (§5.2, "Effect of client caching").
func (c *Client) Open(p *sim.Proc, name string) (*nas.Handle, error) {
	if h, ok := c.delegated(name); ok {
		c.h.Compute(p, c.h.P.CacheLookup)
		return h, nil
	}
	return c.Driver.Open(p, name)
}

// delegated returns the canonical handle of name if the client holds
// its open delegation, counting a local open: after the first open of a
// file — which resolves it on every shard's serving copy — the servers
// grant one, so subsequent opens and closes are satisfied locally
// (§5.2, "Effect of client caching").
func (c *Client) delegated(name string) (*nas.Handle, bool) {
	hs, ok := c.Handles(name)
	if !ok {
		return nil, false
	}
	c.stats.LocalOpens++
	return hs[0], true
}

// Close implements nas.Client: local under a delegation.
func (c *Client) Close(p *sim.Proc, h *nas.Handle) error {
	c.h.Compute(p, c.h.P.CacheLookup)
	return nil
}

// Getattr implements nas.Client: attributes are served under the
// delegation when held.
func (c *Client) Getattr(p *sim.Proc, h *nas.Handle) (int64, error) {
	if _, ok := c.Handles(h.Name); ok {
		c.h.Compute(p, c.h.P.CacheLookup)
		return h.Size, nil
	}
	return c.shards[0].Current().Getattr(p, h)
}

// Create implements nas.Client: the name is created on every shard
// concurrently, and on every live copy of a replicated shard (the
// namespace replicates with the data, so failover finds the file),
// failing over like a read when a serving copy times out.
func (c *Client) Create(p *sim.Proc, name string) (*nas.Handle, error) {
	return c.Resolve(p, name, func(wp *sim.Proc, shard int) (*nas.Handle, error) {
		set := c.shards[shard]
		hs, err := set.NameOp(wp, name, (*dafs.Client).Create)
		if err != nil {
			return nil, err
		}
		return hs[set.Serving()], nil
	})
}

// Remove implements nas.Client: the name is removed from every shard,
// reaching every live copy of a replicated shard under the ack policy.
func (c *Client) Remove(p *sim.Proc, name string) error {
	return c.Unlink(p, name, func(wp *sim.Proc, shard int) error {
		return c.shards[shard].Remove(wp, name)
	})
}

// Read implements nas.Client. The request is decomposed into cache blocks;
// all missing blocks are fetched concurrently (the cache's internal
// read-ahead matches the application request size, §5.2 "Server
// throughput"), each from the shard owning its offset.
// The blocks are looked up on the caller's job first, so a read the
// cache satisfies takes no op record.
func (c *Client) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	l, ok := c.readLookups(h, off, n)
	if !ok {
		return 0, nil
	}
	var buf [4]int64
	j := host.Carried(c.h, p)
	misses, _ := l.run(c, &j, buf[:0])
	if len(misses) == 0 {
		return l.end - off, nil
	}
	r := c.Take(p)
	o := r.Task
	o.set(&r.Job, opRead, opMissed, h, off, n, bufID)
	o.look, o.misses = l, append(o.misses[:0], misses...)
	o.Step(&r.Job)
	got, err := o.got, o.err
	c.Put(r)
	return got, err
}

// fetchBlock brings the block at blockOff into the cache (see fetch)
// from p: kind opFetch coalesces with other fetches of the block,
// opPopulate reads it over RPC alone.
func (c *Client) fetchBlock(p *sim.Proc, kind opKind, h *nas.Handle, blockOff int64) error {
	r := c.Take(p)
	r.Task.begin(&r.Job, kind, h, blockOff, 0, 0)
	err := r.Task.err
	c.Put(r)
	return err
}

// WriteData implements nas.Client for content-bearing writes: each shard
// receives its spans' bytes, concurrently like Write.
func (c *Client) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	got, err := c.EachSpan(p, h, off, int64(len(data)), func(wp *sim.Proc, shard int, sh *nas.Handle, so, sn int64) (int64, error) {
		return c.shards[shard].Write(wp, "odafs-rwdata", func(ip *sim.Proc, _ int, in *dafs.Client) (int64, error) {
			return in.WriteData(ip, sh, so, data[so-off:so-off+sn])
		})
	})
	r := c.Take(p)
	o := r.Task
	o.set(&r.Job, opWritten, opStart, h, off, int64(len(data)), 0)
	o.got, o.err = got, err
	o.Step(&r.Job)
	got, err = o.got, o.err
	c.Put(r)
	return got, err
}

// ExtendShard implements stripe.Shards: a zero-length write at end on
// every live copy of the shard.
func (c *Client) ExtendShard(wp *sim.Proc, shard int, sh *nas.Handle, end int64) error {
	_, err := c.shards[shard].Write(wp, "odafs-rextend", func(ip *sim.Proc, _ int, in *dafs.Client) (int64, error) {
		return in.WriteData(ip, sh, end, nil)
	})
	return err
}

// commit is the commit's body (op.Commit), through the Striper's commit
// fan-out: a whole-file commit (n <= 0) reaches every shard, a range
// commit only the shards owning its spans, and on each every live copy
// commits. Each shard's DAFS session runs the verifier comparison and
// re-issues its own lost writes, so a crash of one shard never forces
// rewrites on the others; failures aggregate into a
// *stripe.CommitError.
func (c *Client) commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	return c.CommitSpans(p, h, off, n, func(wp *sim.Proc, shard int, sh *nas.Handle, so, sn int64) (int64, error) {
		return c.shards[shard].Write(wp, "odafs-rcommit", func(ip *sim.Proc, _ int, in *dafs.Client) (int64, error) {
			return 0, in.Commit(ip, sh, so, sn)
		})
	})
}

// PopulateDirectory walks the whole file over RPC so the reference
// directory maps it — the experiments' first pass (§5.2: "the client cache
// managed to map the entire file on the server after having accessed it
// once").
func (c *Client) PopulateDirectory(p *sim.Proc, h *nas.Handle) error {
	for off := int64(0); off < h.Size; off += c.cfg.BlockSize {
		if err := c.fetchBlock(p, opPopulate, h, off); err != nil {
			return err
		}
	}
	return nil
}
