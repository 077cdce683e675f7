// The failure-injection and write-mix experiments as sweeps of canned
// scenario specs: each sweep builds its specs in grid order, runs them
// through RunAll, and renders its tables from the Reports. The axes
// stay in exper.
package scenario

import (
	"fmt"
	"strings"

	"danas/internal/exper"
	"danas/internal/metrics"
)

// mustRun runs a canned spec and panics on a spec error — canned specs
// are ours, so a failure to run is a bug, not an input problem.
func mustRun(spec *Spec, scale exper.Scale) *Report {
	rep, err := Run(spec, scale)
	if err != nil {
		panic(fmt.Sprintf("scenario: canned spec %s: %v", spec.Name, err))
	}
	return rep
}

// mustRunAll is RunAll over canned specs, with mustRun's rule.
func mustRunAll(specs []*Spec, scale exper.Scale) []*Report {
	reps, err := RunAll(specs, scale)
	if err != nil {
		panic(fmt.Sprintf("scenario: canned sweep: %v", err))
	}
	return reps
}

// FailureSpec is one failure-experiment cell as a scenario: the trace
// experiment's workload, the retransmission budgets that bound
// client-side recovery, and shard 0 faulted over the middle 30% of the
// trace starting a quarter in.
func FailureSpec(sched, system string, shards int) *Spec {
	token := systemToken(system)
	spec := &Spec{
		Name:     fmt.Sprintf("failure-%s-%ds-%s", sched, shards, token),
		Describe: fmt.Sprintf("failure experiment cell: %s of shard 0, %d-shard %s fleet", sched, shards, token),
		Fleet:    Fleet{Shards: shards, System: token},
		Retry:    Retry{RTO: exper.FailRTO, Budget: exper.FailRetries},
		Workload: exper.BaseTraceGen(),
	}
	switch sched {
	case "crash":
		spec.Faults = []Fault{{Kind: FaultCrashRestart, Shards: []int{0}, At: Pct(25), Down: Pct(30)}}
	case "degrade":
		spec.Faults = []Fault{{Kind: FaultDegrade, Shards: []int{0}, At: Pct(25), Down: Pct(30), Factor: exper.DegradeFactor}}
	default:
		panic("scenario: unknown failure schedule " + sched)
	}
	return spec
}

// Failure runs the failure-injection experiment: every protocol times
// every fleet size times every fault schedule, each cell a canned
// scenario replaying the same trace as the trace experiment while the
// fault fires.
func Failure(scale exper.Scale) []*Report {
	return FailureOver(scale, exper.FailureShardCounts)
}

// FailureOver runs the failure experiment over an explicit shard axis
// (tests use reduced axes; Failure uses the full one). Reports come in
// grid order: schedule, then shards, then exper.ScalingSystems.
func FailureOver(scale exper.Scale, shardCounts []int) []*Report {
	var specs []*Spec
	for _, sched := range exper.FailureScheds {
		for _, shards := range shardCounts {
			for _, system := range exper.ScalingSystems {
				specs = append(specs, FailureSpec(sched, system, shards))
			}
		}
	}
	return mustRunAll(specs, scale)
}

// failureSched names the schedule a failure cell injects (the inverse
// of FailureSpec's switch).
func failureSched(s *Spec) string {
	if s.Faults[0].Kind == FaultDegrade {
		return "degrade"
	}
	return "crash"
}

// FailureTables renders the crash schedule's headline metrics as tables
// (x = shards, one column per system).
func FailureTables(reps []*Report) (recov, p99 *metrics.Table) {
	recov = metrics.NewTable("Failure injection: recovery time after shard-0 crash/restart (ms; -1 = not within replay)",
		"shards", "ms", exper.ScalingSystems...)
	p99 = metrics.NewTable("Failure injection: p99 response time for ops arriving in the crash window",
		"shards", "us", exper.ScalingSystems...)
	for _, r := range reps {
		if failureSched(r.Spec) != "crash" {
			continue
		}
		x := float64(r.Spec.Fleet.Shards)
		recov.Set(x, r.Spec.legend(), r.M.Fault.RecoveryMillis)
		p99.Set(x, r.Spec.legend(), r.M.Fault.P99FaultMicros)
	}
	return recov, p99
}

// FormatFailure renders the failure experiment deterministically: the
// crash-schedule summary tables followed by one detail line per cell
// carrying the full throughput timeline and outcome counts (base,
// during and after are MB/s before, over and past the fault window;
// recov is ms past fault end until a sliding window regains 95% of
// baseline, 0 if it never dipped and -1 if it never got back; p99f
// covers ops arriving in the window, failures included).
func FormatFailure(reps []*Report) string {
	var b strings.Builder
	recov, p99 := FailureTables(reps)
	b.WriteString(recov.String())
	b.WriteString("\n")
	b.WriteString(p99.String())
	b.WriteString("\n")
	b.WriteString("per-cell detail (shard 0 faulted over the middle of the trace; MB/s before/during/after;\n")
	b.WriteString("recov = ms past fault end to regain 95% of baseline; retried = transparent client retries + ORDMA faults):\n")
	for _, r := range reps {
		m := r.M
		fmt.Fprintf(&b, "sched=%-8s S=%d %-16s base=%7.1f during=%7.1f after=%7.1f MB/s  recov=%8.1fms p99f=%9.1fus  ok=%-5d failed=%-4d retried=%-6d stalls=%d\n",
			failureSched(r.Spec), r.Spec.Fleet.Shards, r.Spec.legend(), m.Fault.BaseMBps, m.Fault.FaultMBps, m.Fault.AfterMBps,
			m.Fault.RecoveryMillis, m.Fault.P99FaultMicros, m.OpsOK, m.OpsFailed, m.Retried, m.Stalls)
	}
	return b.String()
}

// WriteMixSpec is one write-mix cell as a scenario: the trace
// experiment's workload with the read fraction swept and periodic
// commits added, the write-behind subsystem armed with footprint-scaled
// water marks on every shard.
func WriteMixSpec(system string, shards int, readFrac float64) *Spec {
	token := systemToken(system)
	w := exper.BaseTraceGen()
	w.ReadFrac = readFrac
	w.CommitEvery = exper.WriteMixCommitEvery
	return &Spec{
		Name:     fmt.Sprintf("writemix-%ds-read%.0f-%s", shards, readFrac*100, token),
		Describe: fmt.Sprintf("write-mix cell: %.0f%% reads over a %d-shard write-behind %s fleet", readFrac*100, shards, token),
		Fleet:    Fleet{Shards: shards, System: token},
		WB:       WriteBehind{Enabled: true, Auto: true},
		Workload: w,
	}
}

// WriteMix sweeps the read/write mix over every protocol and fleet
// size with write-behind armed, locating the knee where the write path
// caps the fleet.
func WriteMix(scale exper.Scale) []*Report {
	return WriteMixOver(scale, exper.WriteMixShardCounts, exper.WriteMixReadFracs)
}

// WriteMixOver runs the sweep over explicit shard and read-fraction
// axes (tests use reduced axes; WriteMix uses the full ones). Reports
// come in grid order: shards, then read fraction, then
// exper.ScalingSystems. Every cell is fault-free, so a failed op is a
// bug and panics.
func WriteMixOver(scale exper.Scale, shardCounts []int, readFracs []float64) []*Report {
	var specs []*Spec
	for _, shards := range shardCounts {
		for _, frac := range readFracs {
			for _, system := range exper.ScalingSystems {
				specs = append(specs, WriteMixSpec(system, shards, frac))
			}
		}
	}
	reps := mustRunAll(specs, scale)
	for _, r := range reps {
		if r.M.OpsFailed > 0 {
			panic(fmt.Sprintf("writemix %s: %d ops failed in a fault-free replay", r.Spec.Name, r.M.OpsFailed))
		}
	}
	return reps
}

// WriteMixTables renders, per fleet size, throughput against the read
// fraction (one column per system).
func WriteMixTables(reps []*Report) []*metrics.Table {
	byShards := make(map[int]*metrics.Table)
	var order []*metrics.Table
	for _, r := range reps {
		shards := r.Spec.Fleet.Shards
		t, ok := byShards[shards]
		if !ok {
			t = metrics.NewTable(
				fmt.Sprintf("Write mix: completed throughput vs read fraction, %d shard(s)", shards),
				"read %", "MB/s", exper.ScalingSystems...)
			byShards[shards] = t
			order = append(order, t)
		}
		t.Set(r.Spec.Workload.ReadFrac*100, r.Spec.legend(), r.M.MBps)
	}
	return order
}

// FormatWriteMix renders the sweep deterministically: the per-fleet-size
// throughput tables followed by one detail line per cell carrying the
// tail latency, backpressure stall time, destage volume and coalescing,
// and every shard's disk utilization (the flusher's destage traffic;
// reads stay warm in the server caches).
func FormatWriteMix(reps []*Report) string {
	var b strings.Builder
	for _, t := range WriteMixTables(reps) {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	b.WriteString("per-cell detail (lat us from recorded arrival, commits included; wstall = dirty high-water\n")
	b.WriteString("throttle time across shards; flush = destaged MB @ mean blocks/IO; disk% = per-shard destage util):\n")
	for _, r := range reps {
		m := r.M
		fmt.Fprintf(&b, "S=%d read=%3.0f%% %-16s agg=%7.1f MB/s  p50=%9.1f p99=%9.1f  stalls=%-5d wstall=%8.1fms thr=%-5d flush=%7.1fMB@%4.1f commits=%-4d disk%%=%s\n",
			r.Spec.Fleet.Shards, r.Spec.Workload.ReadFrac*100, r.Spec.legend(), m.MBps, m.P50Micros, m.P99Micros,
			m.Stalls, m.WB.StallMillis, m.WB.Throttled, m.WB.FlushedMB, m.WB.BlocksPerFlush, m.WB.Commits,
			metrics.PctList(m.ShardDiskPct))
	}
	return b.String()
}
