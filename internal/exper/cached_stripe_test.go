package exper

import (
	"errors"
	"testing"

	"danas/internal/core"
	"danas/internal/dafs"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/stripe"
	"danas/internal/wb"
)

func cachedCfg() core.Config {
	return core.Config{BlockSize: scalingBlock, DataBlocks: 64, Headers: 128, UseORDMA: true}
}

// TestCachedNamespaceFailsOver pins the cached client's namespace
// fan-out to the replica set's failover rules: with shard 0's primary
// crashed and its replica up, Create and Remove must each time out on
// the primary, fail over, and succeed on the replica, which then holds
// (and then no longer holds) the name.
func TestCachedNamespaceFailsOver(t *testing.T) {
	cl := replCluster(t, 1)
	creator := cl.ReplicatedCachedClient(0, cachedCfg(), stripe.AckSync)
	remover := cl.ReplicatedCachedClient(0, cachedCfg(), stripe.AckSync)
	creator.SetRetry(FailRTO, ReplRetries)
	remover.SetRetry(FailRTO, ReplRetries)
	replica := cl.Copy(0, 1).FS
	var createErr, removeErr, afterCreate, afterRemove error
	cl.Go("app", func(p *sim.Proc) {
		cl.Crash(0, 0)
		_, createErr = creator.Create(p, "fresh")
		_, afterCreate = replica.Lookup("fresh")
		removeErr = remover.Remove(p, "fresh")
		_, afterRemove = replica.Lookup("fresh")
	})
	cl.Run()
	if createErr != nil || afterCreate != nil {
		t.Errorf("create with the primary down: %v; replica lookup: %v", createErr, afterCreate)
	}
	if removeErr != nil || afterRemove == nil {
		t.Errorf("remove with the primary down: %v; replica still holds the name: %v", removeErr, afterRemove == nil)
	}
	if creator.Failovers() != 1 || remover.Failovers() != 1 {
		t.Errorf("Failovers = %d (create), %d (remove); want 1 each", creator.Failovers(), remover.Failovers())
	}
}

// TestGroupNamespaceFailoverRunsOncePerCopy is the same crash under the
// raw DAFS mount's stripe.Group: the replica applies a create (or a
// remove) while the primary is still timing out, so the rerun after
// failover must not ask it again — a second create there fails with
// nas.ErrExist, a second remove with nas.ErrNoEnt.
func TestGroupNamespaceFailoverRunsOncePerCopy(t *testing.T) {
	cl := replCluster(t, 1)
	cl.CreateWarmFile("old", scalingBlock)
	mount := func() (*stripe.Group, nas.Client) {
		dcs, groups, base := cl.ReplicatedDAFSClient(0, nic.Poll, dafs.Inline, stripe.AckSync)
		for _, dc := range dcs {
			dc.SetRetry(FailRTO, ReplRetries)
		}
		return groups[0], base
	}
	creatorSet, creator := mount()
	removerSet, remover := mount()
	var createErr, removeErr error
	cl.Go("app", func(p *sim.Proc) {
		cl.Crash(0, 0)
		_, createErr = creator.Create(p, "fresh")
		removeErr = remover.Remove(p, "old")
	})
	cl.Run()
	if createErr != nil || removeErr != nil {
		t.Errorf("create, remove with the primary down: %v, %v", createErr, removeErr)
	}
	replica := cl.Copy(0, 1).FS
	if _, err := replica.Lookup("fresh"); err != nil {
		t.Errorf("the replica lacks the created name: %v", err)
	}
	if _, err := replica.Lookup("old"); err == nil {
		t.Error("the replica still holds the removed name")
	}
	if creatorSet.Failovers != 1 || removerSet.Failovers != 1 {
		t.Errorf("Failovers = %d (create), %d (remove); want 1 each", creatorSet.Failovers, removerSet.Failovers)
	}
}

// TestCachedCommitAggregatesShardFailures checks that the cached
// client's commit fan-out reports a crashed shard the way the striped
// client does: a *stripe.CommitError naming exactly that shard, still
// matching nas.ErrTimeout, after the live shard ran its commit.
func TestCachedCommitAggregatesShardFailures(t *testing.T) {
	ccfg := DefaultClusterConfig()
	ccfg.ServerCacheBlockSize = scalingBlock
	ccfg.Shards = 2
	ccfg.WriteBehind = true
	ccfg.WBConfig = wb.Config{HighWater: 1024, LowWater: 512, MaxBatch: 8}
	cl := NewCluster(ccfg)
	t.Cleanup(cl.Close)
	cl.CreateWarmFile("data", 64*scalingBlock)
	cc := cl.StripedCachedClient(0, cachedCfg())
	cc.SetRetry(FailRTO, FailRetries)
	var err error
	cl.Go("app", func(p *sim.Proc) {
		h, oerr := cc.Open(p, "data")
		if oerr != nil {
			t.Errorf("open: %v", oerr)
			return
		}
		// Two stripe units: one span on each shard.
		if _, werr := cc.Write(p, h, 0, 2*scalingBlock, 1); werr != nil {
			t.Errorf("write: %v", werr)
			return
		}
		cl.Crash(1, 0)
		err = cc.Commit(p, h, 0, 0)
	})
	cl.Run()
	var agg *stripe.CommitError
	if !errors.As(err, &agg) {
		t.Fatalf("Commit error = %v (%T), want *stripe.CommitError", err, err)
	}
	if len(agg.Shards) != 1 || agg.Shards[0] != 1 {
		t.Errorf("CommitError.Shards = %v, want [1]", agg.Shards)
	}
	if !errors.Is(err, nas.ErrTimeout) {
		t.Errorf("errors.Is(err, nas.ErrTimeout) = false for %v", err)
	}
	// The destage outlasts the retransmission timeout, so the live
	// shard may execute the commit more than once.
	if cl.Shards[0].WB.Stats().Commits == 0 {
		t.Error("the live shard never committed")
	}
}
