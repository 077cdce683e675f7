package exper

import (
	"errors"
	"testing"

	"danas/internal/core"
	"danas/internal/dafs"
	"danas/internal/nas"
	"danas/internal/nfs"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/stripe"
	"danas/internal/wb"
	"danas/internal/workload"
)

// replCluster builds a one-shard replicated write-behind cluster with a
// warm file; high water marks keep unstable writes dirty (no throttle,
// no destage) so the failover tests control exactly what each copy
// holds.
func replCluster(t *testing.T, replicas int) *Cluster {
	t.Helper()
	ccfg := DefaultClusterConfig()
	ccfg.ServerCacheBlockSize = scalingBlock
	ccfg.Replicas = replicas
	ccfg.WriteBehind = true
	ccfg.WBConfig = wb.Config{HighWater: 1024, LowWater: 512, MaxBatch: 8}
	cl := NewCluster(ccfg)
	t.Cleanup(cl.Close)
	cl.CreateWarmFile("data", 64*scalingBlock)
	return cl
}

// TestSyncFailoverReissuesNothing is the sync ack policy's durability
// contract: every copy acknowledged every write, so when the primary
// dies the failover drain finds each uncommitted range already pending
// on the surviving copy and re-issues none of them.
func TestSyncFailoverReissuesNothing(t *testing.T) {
	cl := replCluster(t, 1)
	dcs, groups, base := cl.ReplicatedDAFSClient(0, nic.Poll, dafs.Inline, stripe.AckSync)
	for _, dc := range dcs {
		dc.SetRetry(FailRTO, ReplRetries)
	}
	g := groups[0]
	data := make([]byte, scalingBlock)
	cl.Go("app", func(p *sim.Proc) {
		h, err := base.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < 4; i++ {
			if _, err := base.WriteData(p, h, int64(i)*scalingBlock, data); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		cl.Crash(0, 0) // the primary; the replica keeps serving
		size, err := base.Getattr(p, h)
		if err != nil {
			t.Errorf("getattr after primary crash: %v (failover should absorb it)", err)
			return
		}
		if size != 64*scalingBlock {
			t.Errorf("getattr size = %d after failover, want %d", size, 64*scalingBlock)
		}
	})
	cl.Run()
	if g.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", g.Failovers)
	}
	if g.Reissued != 0 {
		t.Errorf("Reissued = %d, want 0 — sync acked every range on the survivor", g.Reissued)
	}
	if g.Serving() != 1 {
		t.Errorf("Serving() = %d after failover, want 1", g.Serving())
	}
}

// TestAsyncFailoverReissuesLostWrites is the async ack policy's loss
// model end to end: writes acknowledged by the primary alone die with
// it, and the failover drain re-issues every one of them — stably — on
// the surviving copy, so the data is durable where the clients now
// read.
func TestAsyncFailoverReissuesLostWrites(t *testing.T) {
	cl := replCluster(t, 1)
	dcs, groups, base := cl.ReplicatedDAFSClient(0, nic.Poll, dafs.Inline, stripe.AckAsync)
	for _, dc := range dcs {
		dc.SetRetry(FailRTO, ReplRetries)
	}
	g := groups[0]
	data := make([]byte, scalingBlock)
	cl.Go("app", func(p *sim.Proc) {
		h, err := base.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// The replica is dark while the writes land: async returns on the
		// primary's ack alone, so all four ranges exist only there.
		cl.Crash(0, 1)
		for i := 0; i < 4; i++ {
			if _, err := base.WriteData(p, h, int64(i)*scalingBlock, data); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		// Let the background replica writes exhaust their budgets (the
		// copy gets marked dead), then swap the outage: replica back up
		// cold, primary — and the only acknowledged copies — gone.
		p.Sleep(50 * sim.Millisecond)
		cl.Restart(0, 1)
		cl.Crash(0, 0)
		// Every copy is now marked dead, so this op fails typed (amnesty
		// clears the marks rather than hanging) — but the drain has
		// already re-issued the primary's uncommitted ranges on the
		// restarted replica.
		if _, err := base.Getattr(p, h); !errors.Is(err, nas.ErrTimeout) {
			t.Errorf("getattr with every copy marked dead: %v, want nas.ErrTimeout", err)
		}
		if _, err := base.Getattr(p, h); err != nil {
			t.Errorf("getattr after amnesty probe: %v (the restarted replica should answer)", err)
		}
		if _, err := base.Read(p, h, 0, scalingBlock, 1); err != nil {
			t.Errorf("read-back on the survivor: %v", err)
		}
	})
	cl.Run()
	if g.Reissued != 4 {
		t.Errorf("Reissued = %d, want 4 — every async-lost range re-issued on the survivor", g.Reissued)
	}
	if g.ReplicaErrs == 0 {
		t.Error("no replica write failure recorded while the replica was dark")
	}
	// The re-issues were stable writes: the survivor destaged them.
	if got := cl.ReplicaSets[0][1].Disk.BytesWritten; got < 4*scalingBlock {
		t.Errorf("survivor disk holds %d bytes, want >= %d (re-issues must be stable)", got, 4*scalingBlock)
	}
}

// TestQuorumProgressWithSlowReplica checks the quorum policy's latency
// promise: with one of three copies behind a crippled link, writes
// complete on the majority's acks while the straggler finishes in the
// background — no timeout, no dead-marking, no waiting for the slowest
// copy.
func TestQuorumProgressWithSlowReplica(t *testing.T) {
	cl := replCluster(t, 2)
	_, groups, base := cl.ReplicatedDAFSClient(0, nic.Poll, dafs.Inline, stripe.AckQuorum)
	g := groups[0]
	// Copy 2 serializes a block in ~16 s at this rate; a policy that
	// waited for it would blow the elapsed bound by three orders of
	// magnitude.
	cl.DegradeLink(0, 2, 1000)
	data := make([]byte, scalingBlock)
	var elapsed sim.Duration
	cl.Go("app", func(p *sim.Proc) {
		h, err := base.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		start := p.Now()
		for i := 0; i < 4; i++ {
			if _, err := base.WriteData(p, h, int64(i)*scalingBlock, data); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		elapsed = sim.Duration(p.Now() - start)
	})
	cl.Run()
	if elapsed <= 0 || elapsed > 100*sim.Millisecond {
		t.Errorf("4 quorum writes took %v, want well under 100ms (must not wait for the slow copy)", elapsed)
	}
	if g.ReplicaErrs != 0 {
		t.Errorf("ReplicaErrs = %d, want 0 — slow is not dead", g.ReplicaErrs)
	}
	if g.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0", g.Failovers)
	}
}

// TestLazyFailoverSessionRetryArmed is the regression for replica
// sessions mounted after SetRetry ran: the cached client mounts replica
// sessions lazily at first failover, and a session armed at construction
// must surface a dead replica as a typed timeout — not hang the process
// forever — even when every copy is down. Amnesty then lets the same
// client recover once the fleet restarts.
func TestLazyFailoverSessionRetryArmed(t *testing.T) {
	ccfg := DefaultClusterConfig()
	ccfg.ServerCacheBlockSize = scalingBlock
	ccfg.Replicas = 1
	cl := NewCluster(ccfg)
	t.Cleanup(cl.Close)
	cl.CreateWarmFile("data", 64*scalingBlock)
	cc := cl.ReplicatedCachedClient(0, core.Config{
		BlockSize:  scalingBlock,
		DataBlocks: 64,
		Headers:    128,
		UseORDMA:   true,
	}, stripe.AckSync)
	// Only the primary session exists yet; the replica session is
	// mounted lazily by the first failover and must inherit this.
	cc.SetRetry(FailRTO, ReplRetries)
	done := false
	cl.Go("app", func(p *sim.Proc) {
		h, err := cc.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if _, err := cc.Read(p, h, 0, scalingBlock, 1); err != nil {
			t.Errorf("warm read: %v", err)
			return
		}
		cl.Crash(0, 0)
		cl.Crash(0, 1)
		// Primary times out, failover lazily mounts the replica session,
		// the replica times out too (it is armed), amnesty surfaces the
		// typed error. An unarmed lazy session would hang here and the
		// done flag below would never be set.
		if _, err := cc.Read(p, h, scalingBlock, scalingBlock, 1); !errors.Is(err, nas.ErrTimeout) {
			t.Errorf("read with the whole replica set down: %v, want nas.ErrTimeout", err)
		}
		cl.Restart(0, 0)
		cl.Restart(0, 1)
		if _, err := cc.Read(p, h, 2*scalingBlock, scalingBlock, 1); err != nil {
			t.Errorf("read after fleet restart: %v (amnesty must un-brick the client)", err)
		}
		done = true
	})
	cl.Run()
	if !done {
		t.Fatal("client hung: the lazily-mounted replica session was not retry-armed")
	}
	if cc.Failovers() < 2 {
		t.Errorf("Failovers = %d, want >= 2 (primary->replica, replica->amnesty)", cc.Failovers())
	}
}

// TestCommitStormSharedTracker is the commit-storm audit for the shared
// CommitTracker: depth-8 interleaved unstable writes and commits on one
// session — commits in flight while writes land, a crash rolling the
// verifier mid-storm — must account for every range, re-issue the lost
// ones, and leave nothing pending. CI runs this under -race: every
// tracker access must stay on the cooperative scheduler's critical
// path.
func TestCommitStormSharedTracker(t *testing.T) {
	cl := replCluster(t, 0)
	nc := cl.NFSClientForCopy(0, 0, 0, nfs.Standard)
	nc.SetRetry(FailRTO, FailRetries)
	ac := nas.NewAsync(nc, 8)
	var res *workload.ReplayResult
	cl.Go("storm", func(p *sim.Proc) {
		h, err := ac.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// Two waves of writes racing commits through the shared session,
		// a crash between them so one wave's commit sees a rolled
		// verifier while later writes are already in flight.
		for wave := 0; wave < 2; wave++ {
			for i := 0; i < 16; i++ {
				ac.Submit(p, nas.Op{Kind: nas.OpWrite, H: h, Off: int64(i) * scalingBlock, N: scalingBlock, BufID: 1})
				if i%4 == 3 {
					ac.Submit(p, nas.Op{Kind: nas.OpCommit, H: h})
				}
			}
			for ac.Outstanding() > 0 {
				ac.Wait(p)
			}
			if wave == 0 {
				cl.Crash(0, 0)
				cl.Restart(0, 0)
			}
		}
		if err := ac.Commit(p, h, 0, 0); err != nil {
			t.Errorf("final commit: %v", err)
		}
		res = &workload.ReplayResult{}
	})
	cl.Run()
	if res == nil {
		t.Fatal("storm never completed")
	}
	if nc.VerifierMismatches() == 0 {
		t.Error("the mid-storm crash raised no verifier mismatch")
	}
	if got := cl.Shards[0].WB.DirtyBlocks(); got != 0 {
		t.Errorf("%d blocks still dirty after the final commit", got)
	}
}
