package exper

import (
	"fmt"
	"testing"

	"danas/internal/core"
	"danas/internal/dafs"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/sim"
)

// TestShardedWriteKeepsReplicaSizesCoherent pins the replicated-namespace
// invariant the striped clients maintain: an extending write grows every
// shard's replica to the same size (lagging shards get a zero-length
// size update), so shard-0-sourced Open/Getattr never understates a file
// and a later whole-file pass covers all the data. Every legend name is
// mounted through Cluster.Mount, unreplicated and with one replica per
// shard (every copy must then agree), beside the raw DAFS client.
func TestShardedWriteKeepsReplicaSizesCoherent(t *testing.T) {
	const unit = 16 * 1024
	type mountCase struct {
		name     string
		replicas int
		mount    func(t *testing.T, cl *Cluster) nas.Client
	}
	mounts := []mountCase{
		{"DAFS raw", 0, func(_ *testing.T, cl *Cluster) nas.Client {
			return cl.StripedDAFSClient(0, nic.Poll, dafs.Direct)
		}},
	}
	for _, r := range []int{0, 1} {
		for _, system := range ScalingSystems {
			name := system
			if r > 0 {
				name += fmt.Sprintf(" R=%d", r)
			}
			mounts = append(mounts, mountCase{name, r, func(t *testing.T, cl *Cluster) nas.Client {
				m := cl.Mount(system, 0, core.Config{BlockSize: unit, DataBlocks: 8})
				if cached := system == "DAFS" || system == "ODAFS"; (m.Cached != nil) != cached {
					t.Errorf("%s: Cached = %v, want non-nil %v", system, m.Cached, cached)
				}
				return m
			}})
		}
	}
	for _, m := range mounts {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultClusterConfig()
			cfg.Shards = 3
			cfg.Replicas = m.replicas
			cfg.ServerCacheBlockSize = unit
			cfg.StripeUnit = unit
			cl := NewCluster(cfg)
			defer cl.Close()
			c := m.mount(t, cl)
			const end = 5 * unit // last span lands on shard 1; shards 0 and 2 lag
			cl.Go("app", func(p *sim.Proc) {
				h, err := c.Create(p, "grow")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if _, err := c.Write(p, h, 0, end, 1); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if h.Size != end {
					t.Errorf("canonical handle size %d, want %d", h.Size, end)
				}
				if got, err := c.Getattr(p, h); err != nil || got != end {
					t.Errorf("getattr = %d, %v — want %d", got, err, end)
				}
			})
			cl.Run()
			for si, set := range cl.ReplicaSets {
				for cp, sh := range set {
					f, err := sh.FS.Lookup("grow")
					if err != nil {
						t.Fatalf("shard %d copy %d: %v", si, cp, err)
					}
					if f.Size() != end {
						t.Errorf("shard %d copy %d replica size %d, want %d — sizes diverged", si, cp, f.Size(), end)
					}
				}
			}
		})
	}
}
