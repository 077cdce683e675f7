package exper

import (
	"testing"

	"danas/internal/core"
	"danas/internal/dafs"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/sim"
)

// TestWarmStripedReadStartsNoServerProc guards the servers' request
// paths: rpcd workers and DAFS sessions serve a warm read by callbacks,
// with no process of their own. Striped NFS clients of every kind, over
// 64 rpcd workers per shard, and a striped DAFS session client each read
// a file warm on every shard, one stripe unit per call (so no client
// fan-out process either), to quiescence. Building the servers must
// start no process, and the reads exactly one per reader and no more
// coroutines than readers.
func TestWarmStripedReadStartsNoServerProc(t *testing.T) {
	const unit, shards = 16 * 1024, 4
	mounts := []func(cl *Cluster, i int) nas.Client{
		func(cl *Cluster, i int) nas.Client { return cl.StripedDAFSClient(i, nic.Poll, dafs.Direct) },
		func(cl *Cluster, i int) nas.Client { return cl.StripedDAFSClient(i, nic.Intr, dafs.Inline) },
	}
	for _, system := range ScalingSystems[:3] { // the NFS variants
		mounts = append(mounts, func(cl *Cluster, i int) nas.Client {
			return cl.Mount(system, i, core.Config{BlockSize: unit, DataBlocks: 8})
		})
	}
	cfg := DefaultClusterConfig()
	cfg.Clients = len(mounts)
	cfg.Shards = shards
	cfg.NFSWorkers = 64
	cfg.ServerCacheBlockSize = unit
	cfg.StripeUnit = unit
	cl := NewCluster(cfg)
	defer cl.Close()
	const size = 4 * shards * unit
	cl.CreateWarmFile("f", size)
	clients := make([]nas.Client, len(mounts))
	for i, mount := range mounts {
		clients[i] = mount(cl, i)
	}
	if cl.S.Procs() != 0 || cl.S.Coroutines() != 0 {
		t.Fatalf("building the cluster started %d processes and %d coroutines, want none",
			cl.S.Procs(), cl.S.Coroutines())
	}
	handles := make([]*nas.Handle, len(mounts))
	for i := range clients {
		cl.Go("open", func(p *sim.Proc) {
			h, err := clients[i].Open(p, "f")
			if err != nil {
				t.Errorf("%s: open: %v", clients[i].Name(), err)
			}
			handles[i] = h
		})
	}
	cl.Run()
	if t.Failed() {
		return
	}
	procs, coros := cl.S.Procs(), cl.S.Coroutines()
	var read int64
	for i, c := range clients {
		cl.Go("reader", func(p *sim.Proc) {
			for off := int64(0); off < size; off += unit {
				n, err := c.Read(p, handles[i], off, unit, 1)
				if err != nil {
					t.Errorf("%s: read at %d: %v", c.Name(), off, err)
					return
				}
				read += n
			}
		})
	}
	cl.Run()
	if want := int64(len(clients)) * size; read != want {
		t.Fatalf("read %d bytes, want %d", read, want)
	}
	if got := cl.S.Procs() - procs; got != len(clients) {
		t.Errorf("the reads started %d processes, want %d (one per reader)", got, len(clients))
	}
	if got := cl.S.Coroutines() - coros; got > len(clients) {
		t.Errorf("the reads created %d coroutines, want at most %d (one per reader)", got, len(clients))
	}
	for s, sh := range cl.Shards {
		if sh.NFS.RPC.Requests == 0 || sh.DAFS.Reads == 0 {
			t.Errorf("shard %d served %d RPCs and %d DAFS reads, want both", s, sh.NFS.RPC.Requests, sh.DAFS.Reads)
		}
	}
}
