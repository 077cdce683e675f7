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
		s.acs = append(s.acs, m.Async(cfg.Depth))
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

// Outcomes converts a single client's replay result over tr into the
// per-operation outcome records the metrics evaluation layer consumes
// (a pooled fleet result carries no per-operation records).
func Outcomes(tr trace.Trace, res *workload.ReplayResult) []metrics.OpOutcome {
	ops := make([]metrics.OpOutcome, len(tr))
	for i, rec := range tr {
		ops[i] = metrics.OpOutcome{
			Arrival: rec.At,
			Done:    res.OpDone[i],
			Bytes:   res.OpBytes[i],
			Failed:  res.OpErr[i] != nil,
		}
	}
	return ops
}
