package scenario

import (
	"strings"
	"testing"

	"danas/internal/exper"
)

// replicationTestCounts keeps the sweep tests fast: the full replica
// axis is exercised by danas-bench and the CI smoke job.
var replicationTestCounts = []int{1}

// TestReplicationRowsComplete checks the sweep's shape — the
// unreplicated baseline plus every ack policy, for every protocol —
// and its headline result: a replicated fleet under the shard-0
// primary crash fails no operations, while the baseline rows pay for
// the same outage in failed ops or a visible recovery window.
func TestReplicationRowsComplete(t *testing.T) {
	reps := ReplicationOver(tiny, replicationTestCounts)
	cells := 1 + len(replicationTestCounts)*len(exper.ReplicationAcks)
	if want := cells * len(exper.ScalingSystems); len(reps) != want {
		t.Fatalf("rows = %d, want %d", len(reps), want)
	}
	for _, r := range reps {
		m := r.M
		if m.Fault.BaseMBps <= 0 {
			t.Errorf("%s: no baseline throughput", r.Spec.Name)
		}
		if r.Spec.Fleet.Replicas == 0 {
			if ack := replicationAck(r.Spec); ack != "-" {
				t.Errorf("baseline row carries ack=%q, want -", ack)
			}
			if m.Failovers != 0 || m.Reissued != 0 {
				t.Errorf("%s: failovers=%d reissued=%d on an unreplicated fleet",
					r.Spec.Name, m.Failovers, m.Reissued)
			}
			continue
		}
		if m.OpsFailed != 0 {
			t.Errorf("%s: %d ops failed — replication must absorb the primary crash",
				r.Spec.Name, m.OpsFailed)
		}
		if m.Failovers == 0 {
			t.Errorf("%s: the primary crash triggered no failover", r.Spec.Name)
		}
	}
}

// TestReplicationFormat pins the artifact's surface: the recovery and
// failed-op tables plus one detail line per cell.
func TestReplicationFormat(t *testing.T) {
	out := FormatReplication(ReplicationOver(tiny, replicationTestCounts))
	for _, want := range []string{"recovery time", "failed operations", "ack=sync", "ack=async", "ack=-"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted replication artifact missing %q:\n%s", want, out)
		}
	}
}

// TestReplicaFailoverBeatsCrashRecovery is the acceptance bound behind
// the replica-failover scenario: the same fleet, trace, and shard-0
// crash, replayed once unreplicated (crash-recovery rides the outage
// out on retries) and once with a replica (clients fail over). The
// replicated run must fail nothing and recover strictly faster. Run at
// a scale where the separation is categorical — the replicated fleet
// never dips at all — rather than a marginal-ms comparison.
func TestReplicaFailoverBeatsCrashRecovery(t *testing.T) {
	const scale = exper.Scale(0.2)
	crash, _ := Lookup("crash-recovery")
	repl, _ := Lookup("replica-failover")
	reps, err := RunAll([]*Spec{crash, repl}, scale)
	if err != nil {
		t.Fatal(err)
	}
	cm, rm := reps[0].M, reps[1].M
	if !reps[1].Pass {
		t.Errorf("replica-failover failed its own assertions:\n%s", reps[1].Format())
	}
	if rm.OpsFailed != 0 {
		t.Errorf("replica-failover failed %d ops, want 0", rm.OpsFailed)
	}
	if rm.Failovers == 0 {
		t.Error("replica-failover recorded no failovers — the crash never exercised the replica")
	}
	// -1 means the unreplicated run never recovered inside the trace;
	// treat it as worse than any finite window.
	cw, rw := cm.Fault.RecoveryMillis, rm.Fault.RecoveryMillis
	if cw >= 0 && rw >= cw {
		t.Errorf("recovery window with a replica (%.1fms) not strictly smaller than without (%.1fms)", rw, cw)
	}
	if rw < 0 {
		t.Errorf("replica-failover never recovered (window %.1fms)", rw)
	}
}

// TestGroupFailoversReachSpans replays replica-failover over NFS, whose
// per-shard replica sets are stripe.Groups, and requires every failover
// the mounts count to be charged to the span of the operation that
// triggered it — the same accounting the cached ODAFS client keeps.
func TestGroupFailoversReachSpans(t *testing.T) {
	repl, _ := Lookup("replica-failover")
	spec := *repl
	spec.Fleet.System = "nfs"
	sess := exper.NewReplaySession(exper.ScaleGen(probe, spec.Workload), spec.replayConfig())
	defer sess.Close()
	sched := spec.schedule(sess.Trace().Duration(), sess.Cluster.P.LinkBandwidth, sess.Cluster.Fab.TrunkRate)
	ob, err := sess.Observe(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Replay("span-failovers", sched); err != nil {
		t.Fatal(err)
	}
	want := sess.Counters().Failovers
	if want == 0 {
		t.Fatal("the crash triggered no failover")
	}
	var got uint64
	for _, sp := range ob.Rec.Spans() {
		got += uint64(sp.Failovers)
	}
	if got != want {
		t.Errorf("spans carry %d failovers, the mounts counted %d", got, want)
	}
}
