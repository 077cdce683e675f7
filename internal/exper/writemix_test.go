package exper

import (
	"testing"

	"danas/internal/core"
	"danas/internal/fail"
	"danas/internal/nas"
	"danas/internal/nfs"
	"danas/internal/sim"
	"danas/internal/trace"
	"danas/internal/wb"
	"danas/internal/workload"
)

// wbCluster builds a one-shard write-behind cluster with a warm file
// for the commit-protocol tests.
func wbCluster(t *testing.T, cfg wb.Config) *Cluster {
	t.Helper()
	ccfg := DefaultClusterConfig()
	ccfg.ServerCacheBlockSize = scalingBlock
	ccfg.WriteBehind = true
	ccfg.WBConfig = cfg
	cl := NewCluster(ccfg)
	t.Cleanup(cl.Close)
	cl.CreateWarmFile("data", 64*scalingBlock)
	return cl
}

// TestCrashLosesUncommittedWritesAndClientRewrites is the end-to-end
// data-loss contract over the full NFS stack: unstable writes accepted
// into a shard's dirty ledger die with a crash; the rolled verifier
// makes the client's next commit detect the loss, re-issue the ranges
// stably, and return success — recovered, not corrupted.
func TestCrashLosesUncommittedWritesAndClientRewrites(t *testing.T) {
	// High water marks keep the writes unstable (no throttle, no
	// destage) until the crash hits.
	cl := wbCluster(t, wb.Config{HighWater: 1024, LowWater: 512, MaxBatch: 8})
	nc := cl.NFSClientForCopy(0, 0, 0, nfs.Standard)
	cl.Go("app", func(p *sim.Proc) {
		h, err := nc.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < 4; i++ {
			if _, err := nc.Write(p, h, int64(i)*scalingBlock, scalingBlock, 1); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		sh := cl.Shards[0]
		if got := sh.WB.DirtyBlocks(); got == 0 {
			t.Error("setup: no dirty blocks before the crash")
		}
		verBefore := sh.WB.Verifier()
		// Instantaneous reboot between the writes and the commit: the
		// dirty ledger is discarded and the verifier rolls.
		cl.Crash(0, 0)
		cl.Restart(0, 0)
		// The flusher destages concurrently with the writes' RPC round
		// trips, so some blocks may already be on disk (or in flight to
		// it) at crash time; at least one must still have been dirty.
		if st := sh.WB.Stats(); st.LostBlocks == 0 {
			t.Error("crash lost no dirty blocks")
		}
		if sh.WB.Verifier() == verBefore {
			t.Error("crash did not roll the verifier")
		}
		if err := nc.Commit(p, h, 0, 0); err != nil {
			t.Errorf("commit after crash: %v", err)
			return
		}
		if nc.VerifierMismatches() != 1 {
			t.Errorf("VerifierMismatches = %d, want 1", nc.VerifierMismatches())
		}
		if nc.RewrittenRanges() != 4 {
			t.Errorf("RewrittenRanges = %d, want 4 (every lost unstable write re-issued)", nc.RewrittenRanges())
		}
		// The re-writes were stable: everything is on disk again.
		if sh.WB.DirtyBlocks() != 0 {
			t.Errorf("%d blocks dirty after recovery, want 0", sh.WB.DirtyBlocks())
		}
		if sh.Disk.BytesWritten < 4*scalingBlock {
			t.Errorf("disk holds %d bytes after recovery, want >= %d", sh.Disk.BytesWritten, 4*scalingBlock)
		}
		// A clean commit cycle afterwards sees no further mismatch.
		if _, err := nc.Write(p, h, 0, scalingBlock, 1); err != nil {
			t.Errorf("post-recovery write: %v", err)
			return
		}
		if err := nc.Commit(p, h, 0, 0); err != nil {
			t.Errorf("post-recovery commit: %v", err)
		}
		if nc.VerifierMismatches() != 1 {
			t.Errorf("clean commit raised mismatches to %d", nc.VerifierMismatches())
		}
	})
	cl.Run()
}

// TestCommitFansOutPerShard checks the striped cached client's commit
// reaches every shard of the fleet and leaves no shard dirty.
func TestCommitFansOutPerShard(t *testing.T) {
	ccfg := DefaultClusterConfig()
	ccfg.Shards = 4
	ccfg.ServerCacheBlockSize = scalingBlock
	ccfg.StripeUnit = scalingBlock
	ccfg.WriteBehind = true
	ccfg.WBConfig = wb.Config{HighWater: 1024, LowWater: 512, MaxBatch: 8}
	cl := NewCluster(ccfg)
	t.Cleanup(cl.Close)
	cl.CreateWarmFile("data", 64*scalingBlock)
	cc := cl.StripedCachedClient(0, core.Config{
		BlockSize:  scalingBlock,
		DataBlocks: 64,
		Headers:    128,
		UseORDMA:   true,
	})
	cl.Go("app", func(p *sim.Proc) {
		h, err := cc.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// One block onto every shard (stripe unit == block size).
		for i := 0; i < 4; i++ {
			if _, err := cc.Write(p, h, int64(i)*scalingBlock, scalingBlock, 1); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		dirtyShards := 0
		for _, sh := range cl.Shards {
			if sh.WB.DirtyBlocks() > 0 {
				dirtyShards++
			}
		}
		if dirtyShards != 4 {
			t.Errorf("writes dirtied %d shards, want 4", dirtyShards)
		}
		if err := cc.Commit(p, h, 0, 0); err != nil {
			t.Errorf("commit: %v", err)
			return
		}
		for i, sh := range cl.Shards {
			if got := sh.WB.DirtyBlocks(); got != 0 {
				t.Errorf("shard %d: %d dirty blocks after whole-file commit", i, got)
			}
			if st := sh.WB.Stats(); st.Commits == 0 {
				t.Errorf("shard %d never saw a commit", i)
			}
		}
	})
	cl.Run()
}

// TestMidReplayCrashLosesUnstableWritesAndRecovers is the acceptance
// scenario end to end: a shard crash in the middle of an open-loop
// write-heavy replay discards uncommitted unstable writes; the clients
// ride out the outage on their retransmission budgets, and the rolled
// verifier makes a post-restart commit detect the loss and re-issue the
// lost ranges — the replay completes with every operation recovered.
func TestMidReplayCrashLosesUnstableWritesAndRecovers(t *testing.T) {
	gen := TraceGen(tiny)
	gen.ReadFrac = 0.2  // write-heavy
	gen.CommitEvery = 8 // commit often enough to bracket the crash
	tr := trace.Generate(gen)
	// The failure experiment's window: a quarter into the arrival span,
	// lasting 30% of it.
	d := tr.Duration()
	t1, t2 := d/4, d/4+3*d/10
	cl, _, _ := replayClusterWith(tr, 1, func(cfg *ClusterConfig, _ int) {
		// High marks: the crash must find unstable data still dirty.
		cfg.WriteBehind = true
		cfg.WBConfig = wb.Config{HighWater: 4096, LowWater: 1024, MaxBatch: 16}
	})
	defer cl.Close()
	ncs, base := cl.StripedNFSClients(0, nfs.Standard)
	for _, nc := range ncs {
		nc.SetRetry(FailRTO, FailRetries)
	}
	ac := nas.NewAsync(base, traceDepth)
	sched := fail.CrashRestart(0, t1, t2-t1)
	var res *workload.ReplayResult
	cl.Go("replay", func(p *sim.Proc) {
		// Op errors are counted below, not failed on: soft-mount
		// timeouts under the post-restart cold-cache disk storm are an
		// expected, measured outcome (see the failure experiment).
		res, _ = workload.ReplayWith(p, ac, tr, func(sim.Time) {
			if err := sched.Arm(cl.S, len(cl.Shards), cl); err != nil {
				panic(err)
			}
		})
	})
	cl.Run()
	if res == nil {
		t.Fatal("replay never completed")
	}
	if res.Errors >= res.Ops/2 {
		t.Fatalf("replay lost the fleet: %d of %d ops failed", res.Errors, res.Ops)
	}
	if got := cl.Shards[0].WB.Stats().LostBlocks; got == 0 {
		t.Error("crash mid-replay lost no uncommitted unstable writes")
	}
	if got := ncs[0].VerifierMismatches(); got == 0 {
		t.Error("no commit detected the rolled verifier")
	}
	if got := ncs[0].RewrittenRanges(); got == 0 {
		t.Error("no lost unstable write was re-issued")
	}
}
