package exper

import (
	"testing"

	"danas/internal/fail"
	"danas/internal/sim"
)

// TestReplaySessionDrivesAFleet runs three ODAFS clients over two shards
// through a crash-restart of shard 0 with a retry budget armed. The
// fleet must run to completion, pool every client's operations, report
// counters that sum every mount's, record one span per operation per
// client, and measure every pooled operation.
func TestReplaySessionDrivesAFleet(t *testing.T) {
	const clients = 3
	sess := NewReplaySession(ScaleGen(Scale(0.02), BaseTraceGen()), ReplayConfig{
		System:      "ODAFS",
		Shards:      2,
		Clients:     clients,
		RetryRTO:    2 * sim.Millisecond,
		RetryBudget: 7,
	})
	defer sess.Close()
	tr := sess.Trace()
	if len(sess.mounts) != clients {
		t.Fatalf("%d mounts, want %d", len(sess.mounts), clients)
	}
	ob, err := sess.Observe(0)
	if err != nil {
		t.Fatal(err)
	}
	span := tr.Duration()
	sched := fail.CrashRestart(0, span/4, span/4)
	if err := sched.ValidateTopo(sess.Cluster.FailTopo()); err != nil {
		t.Fatalf("schedule rejected: %v", err)
	}
	res, _ := sess.Replay("fleet-crash", sched)
	if want := int64(clients * len(tr)); res.Ops != want {
		t.Errorf("pooled %d ops, want %d", res.Ops, want)
	}
	var sum Counters
	for _, m := range sess.mounts {
		c := m.Counters()
		sum.Retried += c.Retried
		sum.Timeouts += c.Timeouts
		sum.Failovers += c.Failovers
		sum.Reissued += c.Reissued
	}
	if got := sess.Counters(); got != sum {
		t.Errorf("session counters %+v, want the mounts' sum %+v", got, sum)
	}
	if sum.Retried == 0 {
		t.Error("no client absorbed a fault across the crash")
	}
	if n := ob.Rec.Len(); n != clients*len(tr) {
		t.Errorf("recorded %d spans, want %d", n, clients*len(tr))
	}
	// A fault-free Measure of the pooled result needs no per-op records
	// (a pooled result has none) and still accounts for every op.
	m := sess.Measure(res, nil)
	if got := m.OpsOK + m.OpsFailed; got != int64(clients*len(tr)) {
		t.Errorf("measured ok+failed = %d, want %d", got, clients*len(tr))
	}
	if m.HasFault {
		t.Error("Measure without a schedule reported a fault window")
	}
}
