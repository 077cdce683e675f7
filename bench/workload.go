package main

import (
	"fmt"
	"sort"

	"danas/internal/core"
	"danas/internal/exper"
	"danas/internal/metrics"
	"danas/internal/nas"
	"danas/internal/nfs"
	"danas/internal/obs"
	"danas/internal/postmark"
	"danas/internal/sim"
	"danas/internal/trace"
	"danas/internal/workload"
)

// Fleet shape shared with the shipping replay experiments. The
// constants mirror exper's unexported ones (scalingBlock, traceDepth,
// fabricDepth and the fabric sweep's leaf/spine counts); the pin tests
// fail if they drift.
const (
	shards        = 8
	ioBlock       = 16 * 1024
	replayDepth   = 64
	fabricDepth   = 8
	fabricClients = 192
	fabricOversub = 4
	fabricLeaves  = 4
	fabricSpines  = 3
)

// Workload sizes at -scale 1, chosen so one pass (every cell once)
// takes a few seconds and a run repeats it several times.
const (
	// fabricScale is the exper.Scale of the fabric cells: 64 ops per
	// client, the smallest run the sweep allows.
	fabricScale  = 0.25
	replayOps    = 15000
	postmarkTxns = 25000
	pmFiles      = 800
	pmFileSize   = 4096
)

// options are the inputs of one cell that the command line sets.
type options struct {
	Seed  uint64
	Scale float64
	// Observe arms span recording (the traced run's phase metrics).
	Observe bool
}

// workloadDef is one benchmark workload: a fixed list of cells, each a
// protocol driving the same generated inputs, run one after another.
type workloadDef struct {
	Name string
	Why  string
	// Seed is the shipping seed of the experiment the workload derives
	// from, used when -seed is not given.
	Seed  uint64
	Cells []string
	// build sets one cell up (host time charged to setup_s); running the
	// returned cell is the measured phase (cpu_s).
	build func(system string, o options) (*cell, error)
}

// cell is one simulated configuration, built and ready to run. Its
// measured phase is start, then the scheduler run until it drains,
// then finish.
type cell struct {
	sched *sim.Scheduler
	// start spawns the measured phase's Procs; finish reads its results.
	start  func()
	finish func() cellResult
	close  func()
}

// run runs the measured phase in one go.
func (c *cell) run() cellResult {
	c.start()
	c.sched.Run()
	return c.finish()
}

// cellResult is what one cell's measured phase produced. All of it is
// simulated, so it repeats exactly for a seed.
type cellResult struct {
	System string
	// Attempted, Ops and Failed count operations (PostMark:
	// transactions); Bytes is completed bytes, WantBytes what the
	// inputs ask for.
	Attempted, Ops, Failed int64
	Bytes, WantBytes       int64
	// Elapsed is simulated time from the first replay start to the last
	// completion.
	Elapsed sim.Duration
	// Lat is the bucketed histogram the shipping experiments report;
	// Lats holds the same samples exactly.
	Lat  metrics.Hist
	Lats []sim.Duration
	// Stalls counts submissions delayed past their arrival by a full
	// queue; MaxOutstanding is the deepest a client's queue got.
	Stalls         int64
	MaxOutstanding int
	Layers         layerCounts
	// Spans holds one span per operation when the cell was observed.
	Spans []*obs.Span
}

// layerCounts are the simulated per-layer counters of one cell.
type layerCounts struct {
	// Client cache and ORDMA outcomes (cached DAFS/ODAFS clients).
	ORDMAReads, ORDMAFaults, RPCReads uint64
	CacheHits, CacheMisses            uint64
	// Retransmits sums the NFS clients' RPC retransmissions.
	Retransmits uint64
	// Write-behind outcomes summed over shards.
	Flushes, BlocksFlushed, Throttled, Commits uint64
	StallTime                                  sim.Duration
	// Hottest shard CPU and disk, in percent.
	MaxServerCPUPct, MaxDiskPct float64
	// The storage leaf's trunk accounting (zero on the star).
	TrunkUpPct, TrunkDownPct float64
	TrunkBacklog             sim.Duration
}

// add folds another cell's counters in: counts add, peaks take the max.
func (l *layerCounts) add(o layerCounts) {
	l.ORDMAReads += o.ORDMAReads
	l.ORDMAFaults += o.ORDMAFaults
	l.RPCReads += o.RPCReads
	l.CacheHits += o.CacheHits
	l.CacheMisses += o.CacheMisses
	l.Retransmits += o.Retransmits
	l.Flushes += o.Flushes
	l.BlocksFlushed += o.BlocksFlushed
	l.Throttled += o.Throttled
	l.Commits += o.Commits
	l.StallTime += o.StallTime
	l.MaxServerCPUPct = max(l.MaxServerCPUPct, o.MaxServerCPUPct)
	l.MaxDiskPct = max(l.MaxDiskPct, o.MaxDiskPct)
	l.TrunkUpPct = max(l.TrunkUpPct, o.TrunkUpPct)
	l.TrunkDownPct = max(l.TrunkDownPct, o.TrunkDownPct)
	l.TrunkBacklog = max(l.TrunkBacklog, o.TrunkBacklog)
}

var workloads = []workloadDef{
	{
		Name:  "fleet-fabric",
		Why:   "192 clients x 8 shards over a 4:1 leaf/spine fabric: the deepest event queue, thousands of Procs, and the only cross-leaf trunk hops",
		Seed:  exper.FabricGen(1).Seed,
		Cells: []string{"NFS", "DAFS", "ODAFS"},
		build: func(system string, o options) (*cell, error) {
			clients := min(fabricClients, max(8, int(fabricClients*o.Scale)))
			return buildFleet(fleetSpec{
				System:  system,
				Clients: clients,
				Depth:   fabricDepth,
				Fabric:  exper.FabricConfig{Leaves: fabricLeaves, Spines: fabricSpines, Oversub: fabricOversub},
				Observe: o.Observe,
			}, fabricGens(o, clients)), nil
		},
	},
	{
		Name:  "replay-read",
		Why:   "one client, 8 shards, read-only Zipf trace open loop at 6000 op/s: the NFS, VI/DAFS and ORDMA read paths with no write path and no trunks",
		Seed:  exper.BaseTraceGen().Seed,
		Cells: []string{"NFS pre-posting", "NFS hybrid", "DAFS", "ODAFS"},
		build: func(system string, o options) (*cell, error) {
			return buildFleet(fleetSpec{System: system, Clients: 1, Depth: replayDepth, Observe: o.Observe},
				[]trace.GenConfig{replayGen(o, 1)}), nil
		},
	},
	{
		Name:  "replay-writeback",
		Why:   "the same trace with 20% writes, commits every 32 writes and write-behind on: the flusher, destage and commit paths beside the reads",
		Seed:  exper.BaseTraceGen().Seed,
		Cells: []string{"NFS pre-posting", "NFS hybrid", "DAFS", "ODAFS"},
		build: func(system string, o options) (*cell, error) {
			return buildFleet(fleetSpec{System: system, Clients: 1, Depth: replayDepth, WriteBehind: true, Observe: o.Observe},
				[]trace.GenConfig{replayGen(o, 0.8)}), nil
		},
	},
	{
		Name:  "postmark-cache",
		Why:   "Figure 6 closed loop: read-only PostMark over 800 4 KB files, client cache a quarter of them: local hits beside ORDMA or RPC misses, the most handoffs per event",
		Seed:  postmark.DefaultConfig().Seed,
		Cells: []string{"DAFS", "ODAFS"},
		build: func(system string, o options) (*cell, error) {
			return buildPostmark(system, max(16, int(postmarkTxns*o.Scale)), o)
		},
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fabricGens are the fabric sweep's per-client traces at the
// benchmark's scale, one stream per client. (The sweep itself replays
// one shared trace from every client; independent streams make the
// fleet's totals depend on 192 draws of the seed rather than one.)
func fabricGens(o options, clients int) []trace.GenConfig {
	gens := make([]trace.GenConfig, clients)
	for i := range gens {
		gens[i] = exper.FabricGen(exper.Scale(fabricScale * o.Scale))
		gens[i].Seed = o.Seed*uint64(clients) + uint64(i)
	}
	return gens
}

// replayGen is the trace experiment's Zipf stream, lengthened to
// replayOps at -scale 1, with the given read fraction. Below 1 it also
// carries a commit after every 32 writes, the write-mix experiment's
// cadence. The generator's draws per record stay aligned whatever the
// read fraction, so the two replay workloads differ only in which ops
// are writes.
func replayGen(o options, readFrac float64) trace.GenConfig {
	gen := exper.BaseTraceGen()
	gen.Ops = max(16, int(replayOps*o.Scale))
	gen.ReadFrac = readFrac
	if readFrac < 1 {
		gen.CommitEvery = exper.WriteMixCommitEvery
	}
	gen.Seed = o.Seed
	return gen
}

// fleetSpec describes one replay cell: the shape of exper's trace cell
// (one client, utilization epochs marked before the files open) or of
// its fabric cell (many clients with staggered starts, epochs marked
// once the last client's replay clock starts).
type fleetSpec struct {
	System      string
	Clients     int
	Depth       int
	Fabric      exper.FabricConfig
	WriteBehind bool
	Observe     bool
}

// mount is one client machine's async client and the concrete clients
// whose counters the benchmark reads.
type mount struct {
	ac   nas.AsyncClient
	core *core.Client
	nfs  []*nfs.Client
}

var nfsKinds = map[string]nfs.Kind{
	"NFS":             nfs.Standard,
	"NFS pre-posting": nfs.PrePosting,
	"NFS hybrid":      nfs.Hybrid,
}

// buildFleet sets a replay cell up the way exper does: the traced files
// striped over the shards and warm in every shard's cache, the nfsd
// pool matched to the replay depth, one mounted client per machine.
// Client i replays the trace of gens[i], or every client the one trace
// of a single generator, as the shipping experiments do.
func buildFleet(spec fleetSpec, gens []trace.GenConfig) *cell {
	traces := make([]trace.Trace, len(gens))
	var all trace.Trace
	for i, g := range gens {
		traces[i] = trace.Generate(g)
		all = append(all, traces[i]...)
	}
	extents := all.Extents()
	var footprint int64
	for _, ext := range extents {
		footprint += ext.Size
	}
	fileBlocks := int(footprint / ioBlock)
	dataBlocks := max(fileBlocks/4, 2)
	cfg := exper.DefaultClusterConfig()
	cfg.Clients = spec.Clients
	cfg.Shards = shards
	cfg.ServerCacheBlockSize = ioBlock
	cfg.StripeUnit = ioBlock
	cfg.ServerCacheBlocks = fileBlocks + 64
	cfg.Params.NICTLBSize = int(footprint/4096) + 1024
	cfg.NFSWorkers = max(cfg.NFSWorkers, replayDepth)
	cfg.Fabric = spec.Fabric
	if spec.WriteBehind {
		cfg.WriteBehind = true
		cfg.WBConfig = exper.AutoWBConfig(fileBlocks, shards)
	}
	cl := exper.NewCluster(cfg)
	for _, ext := range extents {
		cl.CreateWarmFile(ext.File, ext.Size)
	}
	mounts := make([]mount, spec.Clients)
	for i := range mounts {
		if kind, ok := nfsKinds[spec.System]; ok {
			ncs, base := cl.StripedNFSClients(i, kind)
			mounts[i] = mount{ac: nas.NewAsync(base, spec.Depth), nfs: ncs}
			continue
		}
		cc := cl.StripedCachedClient(i, core.Config{
			BlockSize:  ioBlock,
			DataBlocks: dataBlocks,
			Headers:    fileBlocks + 64,
			UseORDMA:   spec.System == "ODAFS",
		})
		mounts[i] = mount{ac: cc.Async(spec.Depth), core: cc}
	}
	f := &fleetRun{cl: cl, spec: spec, rate: gens[0].Rate, traces: traces, mounts: mounts}
	return &cell{sched: cl.S, start: f.start, finish: f.finish, close: cl.Close}
}

// fleetRun is one replay cell's measured phase: every mounted client
// replays its trace, client i's replay clock starting i/n of one mean
// interarrival late, and the results are pooled.
type fleetRun struct {
	cl      *exper.Cluster
	spec    fleetSpec
	rate    float64
	traces  []trace.Trace
	mounts  []mount
	results []*workload.ReplayResult
	recs    []*obs.Recorder
}

func (f *fleetRun) traceOf(i int) trace.Trace { return f.traces[i%len(f.traces)] }

// start checks the fabric's wiring, as Cluster.Run does, and spawns one
// replaying Proc per client.
func (f *fleetRun) start() {
	cl, spec, mounts := f.cl, f.spec, f.mounts
	cl.Fab.MustArm()
	n := len(mounts)
	f.results = make([]*workload.ReplayResult, n)
	f.recs = make([]*obs.Recorder, n)
	results, recs := f.results, f.recs
	multi := spec.Fabric.Leaves > 1
	started := 0
	var onStart func(sim.Time)
	if multi {
		onStart = func(sim.Time) {
			if started++; started == n {
				cl.MarkServerEpochs()
			}
		}
	}
	stagger := sim.Duration(float64(sim.Second)/f.rate) / sim.Duration(n)
	for i := range mounts {
		tr := f.traceOf(i)
		if spec.Observe {
			// The recorder holds every op (capacity len(tr) > 0), so
			// construction cannot fail.
			recs[i], _ = obs.NewRecorder(len(tr))
		}
		cl.Go(fmt.Sprintf("bench-client%d", i), func(p *sim.Proc) {
			if !multi {
				cl.MarkServerEpochs()
			}
			if d := stagger * sim.Duration(i); d > 0 {
				p.Sleep(d)
			}
			// The first error is dropped: failed ops are counted in the
			// result, and a failed open leaves Ops short of Attempted;
			// the benchmark's checks catch both.
			results[i], _ = workload.ReplayObserved(p, mounts[i].ac, tr, onStart, recs[i])
		})
	}
}

// finish pools the clients' results once the scheduler has drained.
func (f *fleetRun) finish() cellResult {
	r := cellResult{System: f.spec.System, Lats: make([]sim.Duration, 0, len(f.mounts)*len(f.traces[0]))}
	var first, last sim.Time
	for i, res := range f.results {
		tr := f.traceOf(i)
		r.Attempted += int64(len(tr))
		if res == nil {
			r.Failed += int64(len(tr))
			continue
		}
		r.Ops += res.Ops
		r.Failed += res.Errors
		r.Bytes += res.Bytes
		r.Stalls += res.Stalls
		r.MaxOutstanding = max(r.MaxOutstanding, res.MaxOutstanding)
		r.Lat.Merge(&res.Lat)
		for j, rec := range tr {
			r.WantBytes += rec.Size
			r.Lats = append(r.Lats, res.OpDone[j].Sub(res.Start.Add(rec.At)))
		}
		if i == 0 || res.Start < first {
			first = res.Start
		}
		last = max(last, res.Start.Add(res.Elapsed))
		if f.recs[i] != nil {
			r.Spans = append(r.Spans, f.recs[i].Spans()...)
		}
	}
	r.Elapsed = last.Sub(first)
	for _, m := range f.mounts {
		if m.core != nil {
			r.Layers.add(coreCounts(m.core))
		}
		for _, nc := range m.nfs {
			r.Layers.Retransmits += nc.Retransmits()
		}
	}
	r.Layers.add(serverCounts(f.cl))
	return r
}

// coreCounts reads a cached client's ORDMA and cache counters.
func coreCounts(cc *core.Client) layerCounts {
	st, cs := cc.Stats(), cc.CacheStats()
	return layerCounts{
		ORDMAReads:  st.ORDMAReads,
		ORDMAFaults: st.ORDMAFaults,
		RPCReads:    st.RPCReads,
		CacheHits:   cs.DataHits,
		CacheMisses: cs.DataMisses,
	}
}

// sub returns the client counters accumulated since an earlier
// coreCounts snapshot.
func (l layerCounts) sub(o layerCounts) layerCounts {
	l.ORDMAReads -= o.ORDMAReads
	l.ORDMAFaults -= o.ORDMAFaults
	l.RPCReads -= o.RPCReads
	l.CacheHits -= o.CacheHits
	l.CacheMisses -= o.CacheMisses
	return l
}

// serverCounts reads the shards' CPU, disk, write-behind and trunk
// accounting.
func serverCounts(cl *exper.Cluster) layerCounts {
	var l layerCounts
	for _, sh := range cl.Shards {
		l.MaxServerCPUPct = max(l.MaxServerCPUPct, sh.Host.CPU.Utilization()*100)
		l.MaxDiskPct = max(l.MaxDiskPct, sh.Disk.Utilization()*100)
		if sh.WB == nil {
			continue
		}
		st := sh.WB.Stats()
		l.Flushes += st.Flushes
		l.BlocksFlushed += st.BlocksFlushed
		l.Throttled += st.Throttled
		l.Commits += st.Commits
		l.StallTime += st.StallTime
	}
	ts := cl.Fab.TrunkStats(0)
	l.TrunkUpPct, l.TrunkDownPct, l.TrunkBacklog = ts.UpUtil*100, ts.DownUtil*100, ts.MaxBacklog
	return l
}

// buildPostmark sets up one Figure 6 cell: the file set is created and
// a warm pass fills the client cache (and, for ODAFS, collects a remote
// reference for every file touched) before the measured pass.
func buildPostmark(system string, txns int, o options) (*cell, error) {
	ccfg := exper.DefaultClusterConfig()
	ccfg.ServerCacheBlockSize = pmFileSize
	ccfg.ServerCacheBlocks = 8 * pmFiles
	cl := exper.NewCluster(ccfg)
	cc := cl.CachedClient(0, core.Config{
		BlockSize:  pmFileSize,
		DataBlocks: pmFiles / 4,
		Headers:    4 * pmFiles,
		UseORDMA:   system == "ODAFS",
	})
	tc := &timedClient{Client: cc}
	cfg := postmark.DefaultConfig()
	cfg.Files = pmFiles
	cfg.Transactions = txns
	cfg.Seed = o.Seed
	b := postmark.New(tc, cl.Nodes[0].Host, cfg)
	var setupErr error
	cl.Go("postmark-setup", func(p *sim.Proc) {
		if setupErr = b.Setup(p); setupErr == nil {
			_, setupErr = b.Run(p)
		}
	})
	cl.Run()
	if setupErr != nil {
		cl.Close()
		return nil, fmt.Errorf("postmark %s set-up: %w", system, setupErr)
	}
	tc.lats = make([]sim.Duration, 0, txns)
	if o.Observe {
		// Capacity txns > 0, so construction cannot fail.
		tc.rec, _ = obs.NewRecorder(txns)
	}
	var (
		before layerCounts
		res    postmark.Result
		runErr error
	)
	start := func() {
		before = coreCounts(cc)
		cl.Go("postmark", func(p *sim.Proc) {
			cl.ServerNIC.TPT.WarmTLB()
			cl.ServerHost.CPU.MarkEpoch()
			res, runErr = b.Run(p)
		})
	}
	finish := func() cellResult {
		r := cellResult{
			System:    system,
			Attempted: int64(txns),
			Ops:       int64(res.Txns),
			Bytes:     res.BytesRead,
			WantBytes: int64(res.Reads) * pmFileSize,
			Elapsed:   res.Elapsed,
			Lat:       tc.lat,
			Lats:      tc.lats,
		}
		if runErr != nil {
			r.Failed = r.Attempted - r.Ops
		}
		r.Layers = coreCounts(cc).sub(before)
		r.Layers.add(serverCounts(cl))
		if tc.rec != nil {
			r.Spans = tc.rec.Spans()
		}
		return r
	}
	return &cell{sched: cl.S, start: start, finish: finish, close: cl.Close}, nil
}

// timedClient times each PostMark read from outside the client once
// lats is non-nil (the measured pass); the open and close around a read
// are local once the client holds the file's delegation. When a
// recorder is set, each read also gets a span that the layers below
// attribute their time to.
type timedClient struct {
	nas.Client
	lat  metrics.Hist
	lats []sim.Duration
	rec  *obs.Recorder
}

// Read implements nas.Client.
func (c *timedClient) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	if c.lats == nil {
		return c.Client.Read(p, h, off, n, bufID)
	}
	start := p.Now()
	var sp *obs.Span
	if c.rec != nil {
		sp = c.rec.NewSpan(len(c.lats), "read", start)
		obs.Activate(p, sp)
	}
	got, err := c.Client.Read(p, h, off, n, bufID)
	if sp != nil {
		obs.Activate(p, nil)
		sp.End, sp.Err = p.Now(), err != nil
	}
	d := p.Now().Sub(start)
	c.lat.Observe(d)
	c.lats = append(c.lats, d)
	return got, err
}

// quantile returns the exact q-quantile of sorted latencies (nearest
// rank).
func quantile(sorted []sim.Duration, q float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sortedLats pools the cells' exact latencies in ascending order.
func sortedLats(cells []cellResult) []sim.Duration {
	var all []sim.Duration
	for _, c := range cells {
		all = append(all, c.Lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}
