package exper

import (
	"fmt"

	"danas/internal/core"
	"danas/internal/fail"
	"danas/internal/metrics"
	"danas/internal/nas"
	"danas/internal/obs"
	"danas/internal/sim"
	"danas/internal/stripe"
	"danas/internal/trace"
	"danas/internal/wb"
	"danas/internal/workload"
)

// ReplayConfig describes one replay-driven cell: the fleet a trace is
// replayed against and the clients that drive it. The trace, failure,
// write-mix and fabric experiments — and every scenario the scenario
// engine runs — are all instances of this one shape.
type ReplayConfig struct {
	// System is the protocol legend name (see ScalingSystems).
	System string
	// Shards is the fleet size; the traced files stripe across it.
	Shards int
	// Clients is the number of client machines replaying the trace
	// side by side (0 = 1).
	Clients int
	// Depth is the async client's bounded queue depth (0 = the trace
	// experiment's default).
	Depth int
	// RetryBudget, when positive, arms client-side recovery: RPC stacks
	// and DAFS sessions retransmit with exponential backoff from
	// RetryRTO and give up after RetryBudget attempts.
	RetryRTO    sim.Duration
	RetryBudget int
	// WriteBehind arms the write-behind/commit subsystem on every
	// shard. WBConfig tunes it; WBAutoMarks instead derives the water
	// marks from the replayed footprint (the write-mix formula, see
	// AutoWBConfig).
	WriteBehind bool
	WBConfig    wb.Config
	WBAutoMarks bool
	// Replicas, when positive, gives every shard that many replica
	// machines and mounts the replicated clients over them; Ack is the
	// write acknowledgement policy. Zero replays exactly the
	// pre-replication fleet.
	Replicas int
	Ack      stripe.AckPolicy
	// Fabric selects the interconnect topology; the zero value keeps
	// the single-switch star. On a multi-leaf fabric with a retry
	// budget, RetryRTO also bounds RDMA descriptors (client gets and the
	// server's write pulls), since a down switch can black-hole their
	// frames — something the star cannot do.
	Fabric FabricConfig
}

// AutoWBConfig sizes write-behind water marks to a replayed footprint:
// each shard throttles incoming writes once a quarter of the block
// population it owns is dirty, releases at a quarter of that, and
// coalesces up to 16 contiguous blocks per destage I/O. Scaling the
// marks with the footprint keeps backpressure reachable at every
// -scale, so stall-time columns measure the same phenomenon in CI smoke
// runs and full runs alike.
func AutoWBConfig(fileBlocks, shards int) wb.Config {
	hw := fileBlocks / (4 * shards)
	if hw < 8 {
		hw = 8
	}
	lw := hw / 4
	if lw < 1 {
		lw = 1
	}
	return wb.Config{HighWater: hw, LowWater: lw, MaxBatch: 16}
}

// ReplaySession is one assembled replay cell: the cluster and one
// mounted async client per client machine, every client replaying the
// same trace. Callers run the replay via Replay and must Close the
// session.
type ReplaySession struct {
	Cluster *Cluster

	mounts  []*Mount
	acs     []nas.AsyncClient
	tr      trace.Trace
	stagger sim.Duration
	ob      *Observation
}

// NewReplaySession generates the trace and builds the cluster every
// replay cell drives: cfg.Clients client machines, the traced files
// striped block-range across the shards and warm in every shard's
// cache, and the configured protocol's async client mounted on each
// machine. The clients share the one trace (its records are read-only);
// client i's replay clock starts i/Clients of one mean interarrival
// late, so identical arrival processes interleave instead of issuing
// in lockstep bursts.
func NewReplaySession(gen trace.GenConfig, cfg ReplayConfig) *ReplaySession {
	if cfg.Depth <= 0 {
		cfg.Depth = traceDepth
	}
	clients := max(cfg.Clients, 1)
	tr := trace.Generate(gen)
	cl, fileBlocks, dataBlocks := replayClusterWith(tr, cfg.Shards, func(ccfg *ClusterConfig, fileBlocks int) {
		ccfg.Clients = clients
		ccfg.Replicas = cfg.Replicas
		ccfg.Ack = cfg.Ack
		ccfg.Fabric = cfg.Fabric
		if !cfg.WriteBehind {
			return
		}
		ccfg.WriteBehind = true
		if cfg.WBAutoMarks {
			ccfg.WBConfig = AutoWBConfig(fileBlocks, cfg.Shards)
			if cfg.WBConfig.MaxBatch > 0 {
				ccfg.WBConfig.MaxBatch = cfg.WBConfig.MaxBatch
			}
		} else {
			ccfg.WBConfig = cfg.WBConfig
		}
	})
	if cfg.Fabric.multi() && cfg.RetryRTO > 0 {
		// Bound the servers' write-path RDMA pulls before any session
		// connects: a pull black-holed by a down switch must fail the
		// write with a typed status, not wedge the session worker.
		for _, set := range cl.ReplicaSets {
			for _, sh := range set {
				sh.DAFS.RDMATimeout = cfg.RetryRTO
			}
		}
	}
	s := &ReplaySession{Cluster: cl, tr: tr}
	if clients > 1 {
		s.stagger = sim.Duration(float64(sim.Second)/gen.Rate) / sim.Duration(clients)
	}
	for i := 0; i < clients; i++ {
		m := cl.Mount(cfg.System, i, core.Config{
			BlockSize:  scalingBlock,
			DataBlocks: dataBlocks,
			Headers:    fileBlocks + 64,
		})
		if cfg.RetryBudget > 0 {
			m.SetRetry(cfg.RetryRTO, cfg.RetryBudget)
		}
		s.mounts = append(s.mounts, m)
		s.acs = append(s.acs, nas.NewAsync(m.Client, cfg.Depth))
	}
	return s
}

// Trace returns the trace every client replays.
func (s *ReplaySession) Trace() trace.Trace { return s.tr }

// Counters sums the fault accounting of every mount.
func (s *ReplaySession) Counters() Counters {
	var n Counters
	for _, m := range s.mounts {
		c := m.Counters()
		n.Retried += c.Retried
		n.Timeouts += c.Timeouts
		n.Failovers += c.Failovers
		n.Reissued += c.Reissued
	}
	return n
}

// Close tears down the session's simulation.
func (s *ReplaySession) Close() { s.Cluster.Close() }

// DefaultTelemetryInterval is the sampler tick used when a caller asks
// for telemetry without choosing a cadence: fine enough to resolve
// water-mark oscillation at CI scale, coarse enough that a full-scale
// replay stays in the thousands of samples.
const DefaultTelemetryInterval = sim.Millisecond

// Observation is an armed observability session: the per-operation span
// recorder and (when telemetry was requested) the fleet gauge sampler.
type Observation struct {
	Rec     *obs.Recorder
	Sampler *obs.Sampler
}

// Observe arms per-operation tracing and fleet telemetry. The recorder
// is sized to the trace, so every replayed op gets a span; interval > 0
// additionally starts a gauge sampler ticking at that cadence (<= 0
// records spans only). Call once, before Replay — the replay stops the
// sampler at its last completion so the series covers the measured
// range exactly. The error wraps obs.ErrBadConfig or obs.ErrClosed.
func (s *ReplaySession) Observe(interval sim.Duration) (*Observation, error) {
	if s.ob != nil {
		return nil, fmt.Errorf("exper: session already observed: %w", obs.ErrClosed)
	}
	rc, err := obs.NewRecorder(max(len(s.acs)*len(s.tr), 1))
	if err != nil {
		return nil, fmt.Errorf("exper: sizing recorder: %w", err)
	}
	ob := &Observation{Rec: rc}
	if interval > 0 {
		sm, err := obs.NewSampler(s.Cluster.S, interval, s.gauges())
		if err != nil {
			return nil, fmt.Errorf("exper: building sampler: %w", err)
		}
		if err := sm.Start(); err != nil {
			return nil, fmt.Errorf("exper: starting sampler: %w", err)
		}
		ob.Sampler = sm
	}
	s.ob = ob
	return ob, nil
}

// gauges assembles the fleet's telemetry instruments: per-machine CPU
// utilization, per-shard write-behind state, per-leaf trunk load on
// multi-leaf fabrics, and the client-side fault and queue counters.
func (s *ReplaySession) gauges() []obs.Gauge {
	var gs []obs.Gauge
	for _, set := range s.Cluster.ReplicaSets {
		for _, sh := range set {
			gs = append(gs, obs.Gauge{
				Class: obs.GaugeCPUUtil, Name: sh.Host.Name, Fn: cpuUtilFn(sh.Host.CPU),
			})
			if sh.WB == nil {
				continue
			}
			wbf := sh.WB
			gs = append(gs,
				obs.Gauge{Class: obs.GaugeDirtyBlocks, Name: sh.Host.Name,
					Fn: func(sim.Time) float64 { return float64(wbf.DirtyBlocks()) }},
				obs.Gauge{Class: obs.GaugeWBThrottle, Name: sh.Host.Name,
					Fn: func(sim.Time) float64 {
						if wbf.Throttling() {
							return 1
						}
						return 0
					}})
		}
	}
	for _, node := range s.Cluster.Nodes {
		gs = append(gs, obs.Gauge{
			Class: obs.GaugeCPUUtil, Name: node.Host.Name, Fn: cpuUtilFn(node.Host.CPU),
		})
	}
	if fab := s.Cluster.Fab; fab.Leaves() > 1 {
		for i := 0; i < fab.Leaves(); i++ {
			i := i
			gs = append(gs,
				obs.Gauge{Class: obs.GaugeTrunkUtil, Name: fmt.Sprintf("leaf%d", i),
					Fn: func(sim.Time) float64 {
						ts := fab.TrunkStats(i)
						return max(ts.UpUtil, ts.DownUtil)
					}},
				obs.Gauge{Class: obs.GaugeTrunkBacklogUs, Name: fmt.Sprintf("leaf%d", i),
					Fn: func(sim.Time) float64 { return fab.TrunkStats(i).MaxBacklog.Micros() }})
		}
	}
	gs = append(gs,
		obs.Gauge{Class: obs.GaugeRetries, Name: "client",
			Fn: func(sim.Time) float64 { return float64(s.Counters().Retried) }},
		obs.Gauge{Class: obs.GaugeFailovers, Name: "client",
			Fn: func(sim.Time) float64 { return float64(s.Counters().Failovers) }},
		obs.Gauge{Class: obs.GaugeTimeouts, Name: "client",
			Fn: func(sim.Time) float64 { return float64(s.Counters().Timeouts) }},
		obs.Gauge{Class: obs.GaugeAsyncDepth, Name: "client",
			Fn: func(sim.Time) float64 {
				n := 0
				for _, ac := range s.acs {
					n += ac.Outstanding()
				}
				return float64(n)
			}})
	return gs
}

// cpuUtilFn builds a differential CPU-utilization gauge: the busy
// fraction of the interval since the previous sample, clamped to [0, 1]
// (an epoch mark between samples can shrink the cumulative busy time;
// the clamp absorbs it).
func cpuUtilFn(st *sim.Station) func(now sim.Time) float64 {
	var lastBusy sim.Duration
	var lastAt sim.Time
	return func(now sim.Time) float64 {
		busy := st.BusyTime()
		db, dt := busy-lastBusy, now.Sub(lastAt)
		lastBusy, lastAt = busy, now
		if dt <= 0 || db <= 0 {
			return 0
		}
		u := float64(db) / float64(dt)
		if u > 1 {
			u = 1
		}
		return u
	}
}

// Replay runs the open-loop replay of the session's trace on every
// client, with the fault schedule armed at client 0's replay clock
// origin (a nil or empty schedule replays fault-free), driving the
// simulation to completion and pooling the clients' results
// (workload.Pool). The schedule must have been validated; an arm
// failure panics. The returned error is the first per-operation error
// in client order — counted, not fatal, for callers measuring failure
// (fault cells) and fatal for callers expecting a clean run (healthy
// cells).
func (s *ReplaySession) Replay(name string, sched fail.Schedule) (*workload.ReplayResult, error) {
	n := len(s.acs)
	results := make([]*workload.ReplayResult, n)
	errs := make([]error, n)
	var rc *obs.Recorder
	if s.ob != nil {
		rc = s.ob.Rec
	}
	// Utilization epochs: a lone client marks them before its file
	// opens; a fleet marks them when the last client's replay clock
	// starts, so its mass open phase (clients x shards of open RPCs)
	// stays out of the measured window. Both rules are pinned by the
	// experiments' artifacts. The scheduler runs one process at a time,
	// so the plain counters are race-free.
	started, finished := 0, 0
	for i, ac := range s.acs {
		onStart := func(sim.Time) {
			if i == 0 && len(sched) > 0 {
				if err := sched.ArmTopo(s.Cluster.S, s.Cluster.FailTopo(), s.Cluster); err != nil {
					panic(fmt.Sprintf("exper: %s: arming unvalidated schedule: %v", name, err))
				}
			}
			if started++; n > 1 && started == n {
				s.Cluster.MarkServerEpochs()
			}
		}
		s.Cluster.Go(name, func(p *sim.Proc) {
			if n == 1 {
				s.Cluster.MarkServerEpochs()
			}
			if d := s.stagger * sim.Duration(i); d > 0 {
				p.Sleep(d)
			}
			results[i], errs[i] = workload.ReplayObserved(p, ac, s.tr, onStart, rc)
			if finished++; finished == n && s.ob != nil {
				// The sampler's pending tick would keep the event queue
				// non-empty forever; stopping it here also pins the
				// final sample to the replay's last completion.
				s.ob.Sampler.Stop(p.Now())
			}
		})
	}
	s.Cluster.Run()
	var rerr error
	for i, res := range results {
		if res == nil {
			panic(fmt.Sprintf("exper: %s: replay never completed", name))
		}
		if rerr == nil {
			rerr = errs[i]
		}
	}
	return workload.Pool(results), rerr
}

// Measured is everything one replay measures, reduced in one place
// (ReplaySession.Measure). Scenario assertions and reports, and the
// trace and fabric experiment rows, all read from here.
type Measured struct {
	// OpsOK and OpsFailed split the replayed ops by outcome; Retried
	// counts faults the clients absorbed transparently (client-layer
	// retransmissions plus ORDMA faults); Timeouts counts session calls
	// that exhausted their retry budget — the failure cause behind the
	// failed ops, as opposed to the absorbed disturbances.
	OpsOK, OpsFailed int64
	Retried          uint64
	Timeouts         uint64
	// Failovers counts serving-copy switches across the fleet; Reissued
	// counts the uncommitted ranges failover re-wrote onto surviving
	// copies. Both are zero on unreplicated fleets.
	Failovers, Reissued uint64
	// Stalls and MaxOutstanding describe the open-loop driver's queue.
	Stalls         int64
	MaxOutstanding int
	// MBps is completed-byte throughput over the replay; the
	// percentiles are response times from recorded arrival.
	MBps      float64
	P50Micros float64
	P95Micros float64
	P99Micros float64
	// HasFault marks Fault as meaningful: the before/during/after view
	// of the window from the first to the last injected event.
	HasFault bool
	Fault    metrics.FaultMetrics
	// WB aggregates the write-behind subsystem across shards (zero
	// value when the fleet runs without it).
	WB WBMeasured
	// Per-shard utilization over the replay, indexed by shard.
	ShardCPUPct  []float64
	ShardLinkPct []float64
	ShardDiskPct []float64
	// HasFabric marks the trunk figures as meaningful: the storage
	// leaf's hottest trunk utilization per direction, the deepest trunk
	// backlog any frame queued behind, and the frames black-holed by
	// down switches. All zero on the star, which has no trunks.
	HasFabric        bool
	TrunkUpPct       float64
	TrunkDownPct     float64
	TrunkQueueMicros float64
	SwitchDrops      uint64
}

// WBMeasured aggregates the shards' write-behind counters.
type WBMeasured struct {
	// StallMillis is handler time blocked at the dirty high-water mark,
	// summed across shards; Throttled counts the writes that blocked.
	StallMillis float64
	Throttled   uint64
	// FlushedMB is destaged data; BlocksPerFlush the mean coalescing
	// per destage I/O; Commits the OpCommit executions across shards.
	FlushedMB      float64
	BlocksPerFlush float64
	Commits        uint64
}

// Measure reduces a finished replay (res, as Replay returned it) to its
// Measured figures: outcome counts, client counters, queue behaviour,
// throughput and latency, per-shard utilization, write-behind totals on
// write-behind fleets, and trunk figures on multi-leaf fabrics. sched is
// the schedule the replay ran with; a non-empty one also fills the fault
// window, which needs the per-operation records only a single-client
// session's result carries, so a schedule needs a single-client session.
func (s *ReplaySession) Measure(res *workload.ReplayResult, sched fail.Schedule) Measured {
	ctr := s.Counters()
	m := Measured{
		// Every record completes exactly once, so these equal the
		// per-op evaluator's OK/Failed split.
		OpsOK:          res.Ops - res.Errors,
		OpsFailed:      res.Errors,
		Retried:        ctr.Retried,
		Timeouts:       ctr.Timeouts,
		Failovers:      ctr.Failovers,
		Reissued:       ctr.Reissued,
		Stalls:         res.Stalls,
		MaxOutstanding: res.MaxOutstanding,
		MBps:           res.MBps(),
		P50Micros:      res.Lat.Quantile(0.50).Micros(),
		P95Micros:      res.Lat.Quantile(0.95).Micros(),
		P99Micros:      res.Lat.Quantile(0.99).Micros(),
	}
	if len(sched) > 0 {
		ops := make([]metrics.OpOutcome, len(s.tr))
		for i, rec := range s.tr {
			ops[i] = metrics.OpOutcome{
				Arrival: rec.At,
				Done:    res.OpDone[i],
				Bytes:   res.OpBytes[i],
				Failed:  res.OpErr[i] != nil,
			}
		}
		m.HasFault = true
		m.Fault = metrics.NewEval(res.Start, res.Elapsed, ops).Fault(sched[0].At, sched[len(sched)-1].At)
	}
	var flushes, blocks uint64
	for _, sh := range s.Cluster.Shards {
		m.ShardCPUPct = append(m.ShardCPUPct, sh.Host.CPU.Utilization()*100)
		m.ShardLinkPct = append(m.ShardLinkPct, sh.NIC.Port().TxUtilization()*100)
		m.ShardDiskPct = append(m.ShardDiskPct, sh.Disk.Utilization()*100)
		if sh.WB != nil {
			st := sh.WB.Stats()
			m.WB.StallMillis += float64(st.StallTime) / 1e6
			m.WB.Throttled += st.Throttled
			m.WB.FlushedMB += float64(st.BytesFlushed) / 1e6
			m.WB.Commits += st.Commits
			flushes += st.Flushes
			blocks += st.BlocksFlushed
		}
	}
	if flushes > 0 {
		m.WB.BlocksPerFlush = float64(blocks) / float64(flushes)
	}
	if fab := s.Cluster.Fab; fab.Leaves() > 1 {
		ts := fab.TrunkStats(0)
		m.HasFabric = true
		m.TrunkUpPct = ts.UpUtil * 100
		m.TrunkDownPct = ts.DownUtil * 100
		m.TrunkQueueMicros = ts.MaxBacklog.Micros()
		m.SwitchDrops = fab.Dropped()
	}
	return m
}
