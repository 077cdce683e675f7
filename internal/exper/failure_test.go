package exper

import (
	"testing"

	"danas/internal/core"
	"danas/internal/nas"
	"danas/internal/nfs"
	"danas/internal/sim"
	"danas/internal/stripe"
)

// TestORDMAFaultAfterCrashFallsBackToRPC is the §4.2 recovery contract
// under real failure: a crash invalidates every export, so a client
// holding directory references faults on its next ORDMA and must
// recover transparently over RPC (collecting fresh references), never
// panicking and never reading stale memory.
func TestORDMAFaultAfterCrashFallsBackToRPC(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.NFS = false
	cl := NewCluster(cfg)
	defer cl.Close()
	const bs = 16 * 1024
	cl.CreateWarmFile("f", 16*bs)
	// Tiny data cache, big directory: populated blocks are evicted from
	// the data cache but their references stay mapped, so re-reads go
	// through ORDMA.
	c := cl.CachedClient(0, core.Config{BlockSize: bs, DataBlocks: 2, Headers: 64, UseORDMA: true})
	var n int64
	var err error
	cl.Go("app", func(p *sim.Proc) {
		h, oerr := c.Open(p, "f")
		if oerr != nil {
			t.Errorf("open: %v", oerr)
			return
		}
		if perr := c.PopulateDirectory(p, h); perr != nil {
			t.Errorf("populate: %v", perr)
			return
		}
		// A populated-but-evicted block re-reads via ORDMA while the
		// server is healthy.
		if _, rerr := c.Read(p, h, 0, bs, 1); rerr != nil {
			t.Errorf("pre-crash read: %v", rerr)
			return
		}
		pre := c.Stats()
		if pre.ORDMASuccesses == 0 {
			t.Error("pre-crash read did not use ORDMA")
		}
		if pre.ORDMAFaults != 0 {
			t.Errorf("faults before crash: %d", pre.ORDMAFaults)
		}
		cl.Crash(0, 0)
		cl.Restart(0, 0)
		n, err = c.Read(p, h, 4*bs, bs, 1) // populated, evicted, stale ref
	})
	cl.Run()
	if err != nil || n != bs {
		t.Fatalf("read after crash: n=%d err=%v", n, err)
	}
	st := c.Stats()
	if st.ORDMAFaults == 0 {
		t.Fatal("crash-invalidated reference never faulted")
	}
	if st.RPCReads == 0 {
		t.Fatal("fault did not fall back to RPC")
	}
	if st.ORDMASuccesses == 0 {
		t.Fatal("populated directory never served a successful ORDMA")
	}
}

// TestStripedClientRetriesOnlyDeadShardSpans checks span-level fault
// isolation: a read spanning a live and a crashed shard retries only the
// dead shard's span, completing transparently once that shard restarts.
func TestStripedClientRetriesOnlyDeadShardSpans(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Shards = 2
	cl := NewCluster(cfg)
	defer cl.Close()
	const unit = 16 * 1024 // = default ServerCacheBlockSize = stripe unit
	cl.CreateWarmFile("f", 4*unit)
	nc0 := cl.NFSClientForCopy(0, 0, 0, nfs.Standard)
	nc1 := cl.NFSClientForCopy(0, 1, 0, nfs.Standard)
	nc0.SetRetry(sim.Millisecond, 10)
	nc1.SetRetry(sim.Millisecond, 10)
	sc := stripe.NewClient(cl.Layout(), []nas.Client{nc0, nc1})
	var n int64
	var err error
	cl.Go("app", func(p *sim.Proc) {
		h, oerr := sc.Open(p, "f")
		if oerr != nil {
			t.Errorf("open: %v", oerr)
			return
		}
		cl.Crash(1, 0)
		cl.S.After(5*sim.Millisecond, func() { cl.Restart(1, 0) })
		n, err = sc.Read(p, h, 0, 2*unit, 1) // one span per shard
	})
	cl.Run()
	if err != nil || n != 2*unit {
		t.Fatalf("striped read across crash: n=%d err=%v", n, err)
	}
	if got := nc0.Retransmits(); got != 0 {
		t.Fatalf("live shard's span was retried %d times", got)
	}
	if nc1.Retransmits() == 0 {
		t.Fatal("dead shard's span never retried")
	}
	if reads := cl.Shards[0].NFS.Reads; reads != 1 {
		t.Fatalf("live shard executed %d reads, want exactly 1", reads)
	}
}

// TestCrashWithoutRestartFailsTyped checks retry exhaustion against a
// shard that never comes back surfaces as nas.ErrTimeout — a typed,
// countable error, not a hang and not a panic.
func TestCrashWithoutRestartFailsTyped(t *testing.T) {
	cfg := DefaultClusterConfig()
	cl := NewCluster(cfg)
	defer cl.Close()
	cl.CreateWarmFile("f", 64*1024)
	nc := cl.NFSClientForCopy(0, 0, 0, nfs.Standard)
	nc.SetRetry(sim.Millisecond, 2)
	var err error
	done := false
	cl.Go("app", func(p *sim.Proc) {
		h, oerr := nc.Open(p, "f")
		if oerr != nil {
			t.Errorf("open: %v", oerr)
			return
		}
		cl.Crash(0, 0)
		_, err = nc.Read(p, h, 0, 16*1024, 1)
		done = true
	})
	cl.Run()
	if !done {
		t.Fatal("read against a dead shard hung the client process")
	}
	if err != nas.ErrTimeout {
		t.Fatalf("err = %v, want nas.ErrTimeout", err)
	}
}
