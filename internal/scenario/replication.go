// The replication experiment: the failure experiment's shard-0 crash
// replayed across the ack-policy × replica-count grid, a sweep of
// canned scenario specs like the failure and write-mix sweeps. The crash
// always hits the shard's primary (copy 0), so replicated cells
// exercise client failover while unreplicated baseline rows show what
// the same outage costs on retries alone.
package scenario

import (
	"fmt"
	"strings"

	"danas/internal/exper"
	"danas/internal/metrics"
)

// ReplicationSpec is one replication cell as a scenario: the trace
// experiment's workload with periodic commits, a shallow retry budget
// so failover (not backoff) absorbs the outage, and shard 0's primary
// crashed over the middle 30% of the trace. Write-behind stays off:
// its high-water stalls hold writes server-side far longer than the
// shallow budget waits, so arming both would time healthy copies out
// and measure the throttle, not the failover. ack is ignored for the
// replicas == 0 baseline.
func ReplicationSpec(system string, replicas int, ack string) *Spec {
	token := systemToken(system)
	w := exper.BaseTraceGen()
	w.CommitEvery = exper.WriteMixCommitEvery
	spec := &Spec{
		Fleet:    Fleet{Shards: exper.ReplicationShards, System: token, Replicas: replicas},
		Retry:    Retry{RTO: exper.FailRTO, Budget: exper.ReplRetries},
		Workload: w,
		Faults: []Fault{
			{Kind: FaultCrashRestart, Shards: []int{0}, At: Pct(25), Down: Pct(30)},
		},
	}
	if replicas == 0 {
		spec.Name = fmt.Sprintf("replication-0r-%s", token)
		spec.Describe = fmt.Sprintf("replication baseline: shard-0 crash, unreplicated %d-shard %s fleet",
			exper.ReplicationShards, token)
		return spec
	}
	spec.Fleet.Ack = ack
	spec.Name = fmt.Sprintf("replication-%dr-%s-%s", replicas, ack, token)
	spec.Describe = fmt.Sprintf("replication cell: shard-0 primary crash, %d replica(s)/shard, ack=%s, %d-shard %s fleet",
		replicas, ack, exper.ReplicationShards, token)
	return spec
}

// Replication runs the replication experiment: the unreplicated
// baseline plus every replica count times every ack policy, for every
// protocol, each cell a canned scenario replaying the same trace while
// shard 0's primary crashes and restarts.
func Replication(scale exper.Scale) []*Report {
	return ReplicationOver(scale, exper.ReplicationCounts)
}

// ReplicationOver runs the experiment over an explicit replica-count
// axis (tests use reduced axes; Replication uses the full one). Reports
// come in grid order: the baseline cells, then each replica count times
// each ack policy, each over exper.ScalingSystems.
func ReplicationOver(scale exper.Scale, counts []int) []*Report {
	var specs []*Spec
	for _, system := range exper.ScalingSystems {
		specs = append(specs, ReplicationSpec(system, 0, ""))
	}
	for _, r := range counts {
		for _, ack := range exper.ReplicationAcks {
			for _, system := range exper.ScalingSystems {
				specs = append(specs, ReplicationSpec(system, r, ack))
			}
		}
	}
	return mustRunAll(specs, scale)
}

// replicationAck is the ack column of a replication cell: "-" for the
// unreplicated baseline.
func replicationAck(s *Spec) string {
	if s.Fleet.Replicas == 0 {
		return "-"
	}
	return s.Fleet.Ack
}

// ReplicationTables renders the sync-policy headline metrics as tables
// (x = replicas per shard, one column per system): how the recovery
// window and the failed-op count move as copies are added.
func ReplicationTables(reps []*Report) (recov, failed *metrics.Table) {
	recov = metrics.NewTable("Replication: recovery time after shard-0 primary crash, ack=sync (ms; -1 = not within replay)",
		"replicas", "ms", exper.ScalingSystems...)
	failed = metrics.NewTable("Replication: failed operations after shard-0 primary crash, ack=sync",
		"replicas", "ops", exper.ScalingSystems...)
	for _, r := range reps {
		if r.Spec.Fleet.Replicas != 0 && r.Spec.Fleet.Ack != "sync" {
			continue
		}
		x := float64(r.Spec.Fleet.Replicas)
		recov.Set(x, r.Spec.legend(), r.M.Fault.RecoveryMillis)
		failed.Set(x, r.Spec.legend(), float64(r.M.OpsFailed))
	}
	return recov, failed
}

// FormatReplication renders the replication experiment
// deterministically: the sync-policy summary tables followed by one
// detail line per cell carrying the full throughput timeline, outcome
// counts, and the failover accounting.
func FormatReplication(reps []*Report) string {
	var b strings.Builder
	recov, failed := ReplicationTables(reps)
	b.WriteString(recov.String())
	b.WriteString("\n")
	b.WriteString(failed.String())
	b.WriteString("\n")
	b.WriteString("per-cell detail (shard-0 primary crashed over the middle of the trace; R = replicas per shard;\n")
	b.WriteString("failovers = serving-copy switches; reissued = uncommitted ranges rewritten onto survivors):\n")
	for _, r := range reps {
		m := r.M
		fmt.Fprintf(&b, "R=%d ack=%-7s %-16s base=%7.1f during=%7.1f after=%7.1f MB/s  recov=%8.1fms p99f=%9.1fus  ok=%-5d failed=%-4d retried=%-6d failovers=%-3d reissued=%-4d stalls=%d\n",
			r.Spec.Fleet.Replicas, replicationAck(r.Spec), r.Spec.legend(), m.Fault.BaseMBps, m.Fault.FaultMBps, m.Fault.AfterMBps,
			m.Fault.RecoveryMillis, m.Fault.P99FaultMicros, m.OpsOK, m.OpsFailed, m.Retried,
			m.Failovers, m.Reissued, m.Stalls)
	}
	return b.String()
}
