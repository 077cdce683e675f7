package scenario

import (
	"fmt"
	"io"
	"strings"

	"danas/internal/exper"
	"danas/internal/metrics"
	"danas/internal/obs"
	"danas/internal/sim"
)

// Measured is everything one scenario run measures, reduced through
// the metrics evaluation layer. Every assertion reads from here, and
// the experiment drivers rebuild their rows from here.
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
	// value when the spec leaves it off).
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

// AssertResult is one assertion's verdict: the measured value it was
// checked against and whether it held.
type AssertResult struct {
	Assert Assert
	Got    float64
	Ok     bool
}

// Report is one scenario run's deterministic outcome.
type Report struct {
	Spec    *Spec
	Scale   exper.Scale
	M       Measured
	Results []AssertResult
	// Pass is true when every assertion held (vacuously true with no
	// assertions).
	Pass bool
	// Observed marks the run as traced; Breakdown is then the span
	// population's per-phase latency decomposition and FlightOps the
	// flight recorder's retention — how many spans were in flight while
	// a fault window was open (zero without faults).
	Observed  bool
	Breakdown obs.Breakdown
	FlightOps int
}

// RunOpts selects the optional observability outputs of one run.
// The zero value runs untraced unless the spec's own assertions need
// the instruments.
type RunOpts struct {
	// TraceOut receives Chrome trace-event JSON (Perfetto-loadable)
	// when non-nil; its presence arms per-op tracing.
	TraceOut io.Writer
	// TelemetryOut receives the gauge sampler's TSV time series when
	// non-nil; its presence arms the sampler.
	TelemetryOut io.Writer
	// TelemetryInterval overrides the sampler cadence; <= 0 means
	// exper.DefaultTelemetryInterval.
	TelemetryInterval sim.Duration
	// Observe arms per-op tracing even when no output or assertion
	// needs it, so callers can read Report.Breakdown.
	Observe bool
}

// Run validates the spec, compiles it onto the replay machinery, runs
// it at the given experiment scale, and evaluates the assertions.
// Operation failures are a measured outcome, not an error; an error
// means the spec itself could not run.
func Run(spec *Spec, scale exper.Scale) (*Report, error) {
	return RunObserved(spec, scale, RunOpts{})
}

// RunObserved is Run with explicit observability outputs. Tracing is
// armed when an output wants it or an assertion reads from it, and
// never otherwise — an untraced run's simulation schedule is identical
// to one from before the observability layer existed.
func RunObserved(spec *Spec, scale exper.Scale, opts RunOpts) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sess := exper.NewReplaySession(exper.ScaleGen(scale, spec.Workload), spec.replayConfig())
	defer sess.Close()
	tr := sess.Trace()
	sched := spec.schedule(tr.Duration(), sess.Cluster.P.LinkBandwidth, sess.Cluster.Fab.TrunkRate)
	if err := sched.ValidateTopo(sess.Cluster.FailTopo()); err != nil {
		// Unreachable for a spec that passed Validate (one time mode
		// keeps event order span-invariant), but the contract is that
		// nothing arms unvalidated.
		return nil, &ValidateError{Spec: spec.Name, Msg: fmt.Sprintf("fault schedule at scale %g: %v", float64(scale), err), Err: err}
	}

	// Arm observability only when something will read it: the sampler
	// ticks are simulation events, so an armed run is deterministic but
	// not schedule-identical to an untraced one.
	needSampler := opts.TelemetryOut != nil
	for _, a := range spec.Asserts {
		if a.Kind == AssertMaxGauge {
			needSampler = true
		}
	}
	var ob *exper.Observation
	if needSampler || spec.NeedsObs() || opts.TraceOut != nil || opts.Observe {
		interval := sim.Duration(0)
		if needSampler {
			interval = opts.TelemetryInterval
			if interval <= 0 {
				interval = exper.DefaultTelemetryInterval
			}
		}
		var err error
		if ob, err = sess.Observe(interval); err != nil {
			return nil, err
		}
	}
	res, _ := sess.Replay("scenario-"+spec.Name, sched)

	eval := metrics.NewEval(res.Start, res.Elapsed, exper.Outcomes(tr, res))
	ctr := sess.Counters()
	m := Measured{
		OpsOK:          eval.OK(),
		OpsFailed:      eval.Failed(),
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
		m.HasFault = true
		m.Fault = eval.Fault(sched[0].At, sched[len(sched)-1].At)
	}
	var flushes, blocks uint64
	for _, sh := range sess.Cluster.Shards {
		m.ShardCPUPct = append(m.ShardCPUPct, sh.Host.CPU.Utilization()*100)
		m.ShardLinkPct = append(m.ShardLinkPct, sh.NIC.Port().TxUtilization()*100)
		m.ShardDiskPct = append(m.ShardDiskPct, sh.Disk.Utilization()*100)
		if spec.WB.Enabled {
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
	if spec.Fabric.enabled() {
		m.HasFabric = true
		ts := sess.Cluster.Fab.TrunkStats(0)
		m.TrunkUpPct = ts.UpUtil * 100
		m.TrunkDownPct = ts.DownUtil * 100
		m.TrunkQueueMicros = ts.MaxBacklog.Micros()
		m.SwitchDrops = sess.Cluster.Fab.Dropped()
	}

	rep := &Report{Spec: spec, Scale: scale, M: m, Pass: true}
	if ob != nil {
		spans := ob.Rec.Spans()
		rep.Observed = true
		rep.Breakdown = obs.Summarize(spans)
		if len(sched) > 0 {
			// The flight recorder: spans in flight while the fleet was
			// degraded, between the first and last injected event.
			w := obs.Window{
				From: res.Start.Add(sched[0].At),
				To:   res.Start.Add(sched[len(sched)-1].At),
			}
			rep.FlightOps = len(obs.Flight(spans, []obs.Window{w}))
		}
		if opts.TraceOut != nil {
			if err := obs.WriteTrace(opts.TraceOut, spans); err != nil {
				return nil, fmt.Errorf("scenario %s: writing trace: %w", spec.Name, err)
			}
		}
		if opts.TelemetryOut != nil {
			if err := obs.WriteTelemetry(opts.TelemetryOut, ob.Sampler); err != nil {
				return nil, fmt.Errorf("scenario %s: writing telemetry: %w", spec.Name, err)
			}
		}
	}
	for _, a := range spec.Asserts {
		r := evalAssert(a, m, ob)
		rep.Results = append(rep.Results, r)
		if !r.Ok {
			rep.Pass = false
		}
	}
	return rep, nil
}

// evalAssert checks one assertion against the measurements; ob is the
// armed observability session for the kinds that read spans or gauges
// (non-nil whenever the spec contains such a kind — Run arms it).
func evalAssert(a Assert, m Measured, ob *exper.Observation) AssertResult {
	r := AssertResult{Assert: a}
	switch a.Kind {
	case AssertMinMBps:
		r.Got = m.MBps
		r.Ok = r.Got >= a.Value
	case AssertMaxP99Ms:
		r.Got = m.P99Micros / 1000
		r.Ok = r.Got <= a.Value
	case AssertMaxRecoveryMs:
		// RecoveryMillis is -1 when throughput never regained baseline
		// within the replay — that always fails the bound; 0 means it
		// never dipped, which always passes.
		r.Got = m.Fault.RecoveryMillis
		r.Ok = m.HasFault && r.Got >= 0 && r.Got <= a.Value
	case AssertZeroFailedOps:
		r.Got = float64(m.OpsFailed)
		r.Ok = m.OpsFailed == 0
	case AssertMaxFailedOps:
		r.Got = float64(m.OpsFailed)
		r.Ok = r.Got <= a.Value
	case AssertMaxStalls:
		r.Got = float64(m.Stalls)
		r.Ok = r.Got <= a.Value
	case AssertMaxPhaseMs:
		ph, err := obs.ParsePhase(a.Arg)
		if err != nil {
			panic("scenario: unvalidated phase " + a.Arg)
		}
		r.Got = obs.MaxPhase(ob.Rec.Spans(), ph).Micros() / 1000
		r.Ok = r.Got <= a.Value
	case AssertMaxGauge:
		r.Got = ob.Sampler.Max(a.Arg)
		r.Ok = r.Got <= a.Value
	default:
		panic("scenario: unvalidated assert kind " + a.Kind)
	}
	return r
}

// verdict renders a pass/fail token.
func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// Format renders the report deterministically: the measured summary,
// then one line per assertion, then the verdict.
func (r *Report) Format() string {
	var b strings.Builder
	s := r.Spec
	m := r.M
	fmt.Fprintf(&b, "scenario %s [%dx %s]: %s\n", s.Name, s.Fleet.Shards, s.Fleet.System, verdict(r.Pass))
	if s.Describe != "" {
		fmt.Fprintf(&b, "  # %s\n", s.Describe)
	}
	// The failure-cause breakdown: timeouts are the calls that gave up
	// (the cause behind failed ops); retries, failovers and stalls are
	// disturbances absorbed without failing anything.
	fmt.Fprintf(&b, "  ops ok=%d failed=%d causes[timeouts=%d] absorbed[retries=%d failovers=%d stalls=%d] depth<=%d\n",
		m.OpsOK, m.OpsFailed, m.Timeouts, m.Retried, m.Failovers, m.Stalls, m.MaxOutstanding)
	fmt.Fprintf(&b, "  agg=%.1f MB/s  p50=%.1f p95=%.1f p99=%.1f us\n",
		m.MBps, m.P50Micros, m.P95Micros, m.P99Micros)
	if m.HasFault {
		fmt.Fprintf(&b, "  fault base=%.1f during=%.1f after=%.1f MB/s  recov=%.1fms p99f=%.1fus\n",
			m.Fault.BaseMBps, m.Fault.FaultMBps, m.Fault.AfterMBps,
			m.Fault.RecoveryMillis, m.Fault.P99FaultMicros)
	}
	if s.Fleet.Replicas > 0 {
		fmt.Fprintf(&b, "  replication replicas=%d ack=%s failovers=%d reissued=%d\n",
			s.Fleet.Replicas, ackToken(s.Fleet.Ack), m.Failovers, m.Reissued)
	}
	if s.WB.Enabled {
		fmt.Fprintf(&b, "  writebehind wstall=%.1fms throttled=%d flush=%.1fMB@%.1f commits=%d\n",
			m.WB.StallMillis, m.WB.Throttled, m.WB.FlushedMB, m.WB.BlocksPerFlush, m.WB.Commits)
	}
	fmt.Fprintf(&b, "  util cpu%%=%s link%%=%s disk%%=%s\n",
		pctList(m.ShardCPUPct), pctList(m.ShardLinkPct), pctList(m.ShardDiskPct))
	if m.HasFabric {
		spines, oversub := s.Fabric.Spines, s.Fabric.Oversub
		if spines < 1 {
			spines = 1
		}
		if oversub < 1 {
			oversub = 1
		}
		fmt.Fprintf(&b, "  fabric leaves=%d spines=%d oversub=%d:1  trunk up=%.1f%% dn=%.1f%% q=%.1fus drops=%d\n",
			s.Fabric.Leaves, spines, oversub,
			m.TrunkUpPct, m.TrunkDownPct, m.TrunkQueueMicros, m.SwitchDrops)
	}
	if r.Observed {
		if r.M.HasFault {
			fmt.Fprintf(&b, "  flight ops=%d (spans overlapping the fault window)\n", r.FlightOps)
		}
		for _, line := range strings.Split(strings.TrimRight(r.Breakdown.Format(), "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", strings.TrimPrefix(line, "  "))
		}
	}
	for _, res := range r.Results {
		fmt.Fprintf(&b, "  assert %s: %s (got %.3f)\n", res.Assert, verdict(res.Ok), res.Got)
	}
	return b.String()
}

// ackToken spells the report's ack policy, defaulting the empty token
// to the policy an empty spec runs with (sync).
func ackToken(ack string) string {
	if ack == "" {
		return "sync"
	}
	return ack
}

// pctList renders per-shard percentages compactly.
func pctList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.1f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// FormatAll renders a batch of reports followed by a one-line summary,
// the form danas-bench prints.
func FormatAll(reps []*Report) string {
	var b strings.Builder
	passed := 0
	for _, r := range reps {
		b.WriteString(r.Format())
		b.WriteString("\n")
		if r.Pass {
			passed++
		}
	}
	fmt.Fprintf(&b, "scenarios: %d/%d passed\n", passed, len(reps))
	return b.String()
}

// RunAll validates every spec upfront (so a bad spec aborts before any
// simulation runs), then runs them all at the given scale across the
// experiment worker pool, reports in input order at any pool width.
func RunAll(specs []*Spec, scale exper.Scale) ([]*Report, error) {
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
	}
	return exper.RunCells(len(specs),
		func(i int) string { return "scenario/" + specs[i].Name },
		func(i int) *Report { return mustRun(specs[i], scale) }), nil
}

// AllPass reports whether every report passed.
func AllPass(reps []*Report) bool {
	for _, r := range reps {
		if !r.Pass {
			return false
		}
	}
	return true
}
