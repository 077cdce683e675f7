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
	M       exper.Measured
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
	sched := spec.schedule(sess.Trace().Duration(), sess.Cluster.P.LinkBandwidth, sess.Cluster.Fab.TrunkRate)
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
	m := sess.Measure(res, sched)

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
func evalAssert(a Assert, m exper.Measured, ob *exper.Observation) AssertResult {
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
		metrics.PctList(m.ShardCPUPct), metrics.PctList(m.ShardLinkPct), metrics.PctList(m.ShardDiskPct))
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
