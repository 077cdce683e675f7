package exper

import (
	"testing"

	"danas/internal/fail"
	"danas/internal/sim"
)

// TestFabricSweepDeterministic pins the fabric artifact: the rendered
// sweep must be byte-identical across reruns and across worker-pool
// widths, because cells are slot-addressed and each simulation is a
// closed deterministic system.
func TestFabricSweepDeterministic(t *testing.T) {
	counts := []int{8}
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(1)
	serial := FormatFabric(FabricSweepOver(Scale(0.02), counts))
	SetParallelism(8)
	wide := FormatFabric(FabricSweepOver(Scale(0.02), counts))
	if serial != wide {
		t.Fatalf("fabric artifact differs across parallelism:\nserial:\n%s\nwide:\n%s", serial, wide)
	}
	SetParallelism(8)
	again := FormatFabric(FabricSweepOver(Scale(0.02), counts))
	if wide != again {
		t.Fatalf("fabric artifact differs across reruns:\nfirst:\n%s\nsecond:\n%s", wide, again)
	}
}

// TestFabricStarMatchesSingleSwitch pins the degenerate-topology
// contract at the sweep level: an oversub-0 cell runs the exact star
// cluster, so its trunk figures are all zero and it moves data.
func TestFabricStarMatchesSingleSwitch(t *testing.T) {
	row := fabricCell("DAFS", 0, 4, FabricGen(Scale(0.02)))
	if row.TrunkUpPct != 0 || row.TrunkDownPct != 0 || row.TrunkQueueMicros != 0 || row.Drops != 0 {
		t.Fatalf("star cell has trunk accounting: %+v", row)
	}
	if row.MBps <= 0 {
		t.Fatal("star cell moved no data")
	}
}

// TestSwitchOutageMidReplayRecovers drives a replay session over a
// 2-leaf fabric while the one spine carrying every flow goes dark for
// part of the trace. The run must complete (no wedged session workers:
// black-holed RDMA descriptors time out with typed faults), every
// operation must be accounted, and the fabric must have actually
// dropped frames.
func TestSwitchOutageMidReplayRecovers(t *testing.T) {
	sess := NewReplaySession(ScaleGen(Scale(0.02), BaseTraceGen()), ReplayConfig{
		System:      "ODAFS",
		Shards:      2,
		RetryRTO:    2 * sim.Millisecond,
		RetryBudget: 7,
		Fabric:      FabricConfig{Leaves: 2, Spines: 2, Oversub: 2},
	})
	defer sess.Close()
	tr := sess.Trace()
	// Servers rack onto leaf 0, the client onto leaf 1; the (0,1) pair
	// ECMP-hashes onto spine 1, so this outage black-holes everything.
	span := tr.Duration()
	sched := fail.SwitchOutage(fail.TierSpine, 1, span/4, span/4)
	if err := sched.ValidateTopo(sess.Cluster.FailTopo()); err != nil {
		t.Fatalf("schedule rejected: %v", err)
	}
	res, _ := sess.Replay("switch-outage", sched)
	if res.Ops != int64(len(tr)) {
		t.Fatalf("replayed %d of %d ops", res.Ops, len(tr))
	}
	if sess.Cluster.Fab.Dropped() == 0 {
		t.Fatal("outage dropped nothing; the spine never carried the flow")
	}
	failed := 0
	for _, err := range res.OpErr {
		if err != nil {
			failed++
		}
	}
	if failed == len(tr) {
		t.Fatal("every op failed; retries rode nothing out")
	}
}
