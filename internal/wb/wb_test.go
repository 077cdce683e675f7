package wb

import (
	"testing"

	"danas/internal/fsim"
	"danas/internal/sim"
)

const blockSize = 16 * 1024

type rig struct {
	s     *sim.Scheduler
	fs    *fsim.FS
	disk  *fsim.Disk
	cache *fsim.ServerCache
	fl    *Flusher
	f     *fsim.File
}

// newRig builds a flusher over a cache of capacity blocks and a file of
// fileBlocks blocks, all resident.
func newRig(t *testing.T, cfg Config, capacity, fileBlocks int) *rig {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	fs := fsim.NewFS()
	disk := fsim.NewDisk(s, "disk", sim.Millis(1), 40e6)
	cache := fsim.NewServerCache(fs, disk, blockSize, capacity)
	f, err := fs.Create("data", int64(fileBlocks)*blockSize)
	if err != nil {
		t.Fatal(err)
	}
	cache.Warm(f)
	return &rig{s: s, fs: fs, disk: disk, cache: cache, fl: NewFlusher(s, "shard", cache, disk, cfg), f: f}
}

// write installs and unstably writes block i.
func (r *rig) write(p *sim.Proc, i int) {
	off := int64(i) * blockSize
	r.cache.Install(r.f, off, blockSize)
	r.put(p, off, blockSize, false)
}

// put writes [off, off+n) through the flusher as a server handler does:
// Write, then Stall if Write says the handler must block.
func (r *rig) put(p *sim.Proc, off, n int64, stable bool) {
	if r.fl.Write(r.f, off, n, stable) {
		r.fl.Stall(p, r.f, off, n, stable)
	}
}

// TestDirtyBlocksPinnedUntilClean is the pinning contract, tested on
// the cache alone so no background destage can race the assertions:
// while a block is dirty it cannot be evicted, however hard clean
// traffic presses on a full cache; once marked clean it is ordinary
// eviction fodder.
func TestDirtyBlocksPinnedUntilClean(t *testing.T) {
	s := sim.New()
	t.Cleanup(s.Close)
	fs := fsim.NewFS()
	disk := fsim.NewDisk(s, "disk", sim.Millis(1), 40e6)
	cache := fsim.NewServerCache(fs, disk, blockSize, 4)
	f, err := fs.Create("data", 64*blockSize)
	if err != nil {
		t.Fatal(err)
	}
	s.Go("app", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			cache.Install(f, int64(i)*blockSize, blockSize)
			if cache.MarkDirty(f, int64(i)*blockSize) == nil {
				t.Fatalf("block %d not resident after install", i)
			}
		}
		// Capacity is 4 and all four resident blocks are dirty: a storm
		// of clean misses must not evict any of them.
		for i := 8; i < 40; i++ {
			cache.Get(p, f, int64(i)*blockSize)
			for j := 0; j < 4; j++ {
				b, ok := cache.Peek(f, int64(j)*blockSize)
				if !ok || !b.Dirty() {
					t.Fatalf("dirty block %d evicted before destage (after miss %d)", j, i)
				}
			}
		}
		if cache.DirtyLen() != 4 {
			t.Fatalf("DirtyLen = %d, want 4", cache.DirtyLen())
		}
		// Destaged: clean blocks become evictable again.
		for j := 0; j < 4; j++ {
			cache.MarkClean(fsim.BlockKey{File: f.ID, Off: int64(j) * blockSize})
		}
		for i := 40; i < 48; i++ {
			cache.Get(p, f, int64(i)*blockSize)
		}
		for j := 0; j < 4; j++ {
			if _, ok := cache.Peek(f, int64(j)*blockSize); ok {
				t.Fatalf("clean block %d survived eviction pressure in a full cache", j)
			}
		}
	})
	s.Run()
}

// TestBackpressureWaterMarks is the throttle contract: unstable writes
// below the high-water mark complete instantly; the write that reaches
// it blocks until the flusher drains the backlog to the low-water mark,
// and the stall is accounted.
func TestBackpressureWaterMarks(t *testing.T) {
	cfg := Config{HighWater: 4, LowWater: 1, MaxBatch: 2}
	r := newRig(t, cfg, 64, 32)
	r.s.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.write(p, 2*i) // non-contiguous: no coalescing windfall
			if p.Now() != 0 {
				t.Errorf("write %d below high water stalled (now=%v)", i, p.Now())
			}
		}
		// Fourth write reaches HighWater=4: must block until <= LowWater.
		r.write(p, 6)
		if p.Now() == 0 {
			t.Error("write at high water did not stall")
		}
		if got := r.fl.DirtyBlocks(); got > cfg.LowWater {
			t.Errorf("throttle released at %d dirty blocks, want <= %d", got, cfg.LowWater)
		}
	})
	r.s.Run()
	st := r.fl.Stats()
	if st.Throttled != 1 {
		t.Fatalf("Throttled = %d, want 1", st.Throttled)
	}
	if st.StallTime <= 0 {
		t.Fatalf("StallTime = %v, want > 0", st.StallTime)
	}
	if st.BlocksFlushed != 4 {
		t.Fatalf("BlocksFlushed = %d, want 4", st.BlocksFlushed)
	}
}

// TestFlusherCoalescesContiguousRuns checks contiguous dirty blocks
// destage as one disk I/O (one seek amortized across the run), bounded
// by MaxBatch.
func TestFlusherCoalescesContiguousRuns(t *testing.T) {
	cfg := Config{HighWater: 64, LowWater: 1, MaxBatch: 4}
	r := newRig(t, cfg, 64, 32)
	r.s.Go("writer", func(p *sim.Proc) {
		// 8 contiguous blocks in one write: 2 I/Os of MaxBatch=4 each.
		r.cache.Install(r.f, 0, 8*blockSize)
		r.put(p, 0, 8*blockSize, false)
	})
	r.s.Run()
	st := r.fl.Stats()
	if st.Flushes != 2 || st.BlocksFlushed != 8 {
		t.Fatalf("Flushes = %d BlocksFlushed = %d, want 2 coalesced I/Os of 4 blocks",
			st.Flushes, st.BlocksFlushed)
	}
	if st.Coalesced != 6 {
		t.Fatalf("Coalesced = %d, want 6 (3 riders per I/O)", st.Coalesced)
	}
	if r.disk.Writes != 2 {
		t.Fatalf("disk served %d writes, want 2", r.disk.Writes)
	}
	if st.BytesFlushed != 8*blockSize {
		t.Fatalf("BytesFlushed = %d, want %d", st.BytesFlushed, 8*blockSize)
	}
}

// TestPickBatchNeverOrphansSeed is the flusher-liveness regression: a
// seed whose lower contiguous neighbours were dirtied after it must not
// be crowded out of its own MaxBatch-capped batch — the seed's FIFO
// entry is consumed at pick time, so excluding it would strand a dirty
// block no order entry points at and underflow the queue on the next
// pick. Block 10 dirtied first, then 6..9 with MaxBatch=4: every block
// must destage and the flusher must stay alive.
func TestPickBatchNeverOrphansSeed(t *testing.T) {
	cfg := Config{HighWater: 64, LowWater: 1, MaxBatch: 4}
	r := newRig(t, cfg, 64, 32)
	r.s.Go("writer", func(p *sim.Proc) {
		r.write(p, 10)
		for i := 6; i < 10; i++ {
			r.write(p, i)
		}
	})
	r.s.Run()
	if got := r.fl.DirtyBlocks(); got != 0 {
		t.Fatalf("%d blocks never destaged (orphaned seed)", got)
	}
	if st := r.fl.Stats(); st.BlocksFlushed != 5 {
		t.Fatalf("BlocksFlushed = %d, want 5", st.BlocksFlushed)
	}
}

// TestStableWriteIsWriteThrough checks a FlagStable write returns only
// after its blocks are on disk, leaving nothing dirty.
func TestStableWriteIsWriteThrough(t *testing.T) {
	r := newRig(t, Config{HighWater: 64, LowWater: 1, MaxBatch: 8}, 64, 32)
	r.s.Go("writer", func(p *sim.Proc) {
		r.cache.Install(r.f, 0, 2*blockSize)
		r.put(p, 0, 2*blockSize, true)
		if p.Now() == 0 {
			t.Error("stable write returned without waiting for the disk")
		}
		if r.fl.DirtyBlocks() != 0 {
			t.Errorf("stable write left %d dirty blocks", r.fl.DirtyBlocks())
		}
		if r.disk.BytesWritten != 2*blockSize {
			t.Errorf("disk holds %d bytes after stable write, want %d", r.disk.BytesWritten, 2*blockSize)
		}
	})
	r.s.Run()
	if st := r.fl.Stats(); st.StableWrites != 1 {
		t.Fatalf("StableWrites = %d, want 1", st.StableWrites)
	}
}

// TestCommitDestagesRange checks Commit returns only once every dirty
// block of the committed range is on disk, and reports the verifier.
func TestCommitDestagesRange(t *testing.T) {
	r := newRig(t, Config{HighWater: 64, LowWater: 1, MaxBatch: 8}, 64, 32)
	r.s.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			r.write(p, i)
		}
		ver := r.fl.Commit(p, r.f, 0, 0) // whole file
		if ver != r.fl.Verifier() {
			t.Errorf("Commit returned verifier %d, flusher holds %d", ver, r.fl.Verifier())
		}
		if r.fl.DirtyBlocks() != 0 {
			t.Errorf("commit returned with %d blocks still dirty", r.fl.DirtyBlocks())
		}
		if r.disk.BytesWritten < 4*blockSize {
			t.Errorf("commit returned with only %d bytes on disk", r.disk.BytesWritten)
		}
	})
	r.s.Run()
	if st := r.fl.Stats(); st.Commits != 1 {
		t.Fatalf("Commits = %d, want 1", st.Commits)
	}
}

// TestRedirtyDuringDestageStaysPinned checks a block re-written while
// its destage I/O is in flight keeps its dirty pin and owes another
// destage: the stale completion must not mark it clean, and a commit
// must not return until the re-written data is also on disk.
func TestRedirtyDuringDestageStaysPinned(t *testing.T) {
	cfg := Config{HighWater: 64, LowWater: 1, MaxBatch: 1}
	r := newRig(t, cfg, 64, 32)
	r.s.Go("writer", func(p *sim.Proc) {
		r.write(p, 0)
		p.Yield() // let the flusher move block 0 into flight
		if r.fl.DirtyBlocks() != 1 {
			t.Fatalf("setup: DirtyBlocks = %d, want 1 in flight", r.fl.DirtyBlocks())
		}
		// Re-dirty mid-flight: one block of dirty data, counted once.
		r.write(p, 0)
		if got := r.fl.DirtyBlocks(); got != 1 {
			t.Errorf("re-dirtied in-flight block counts as %d, want 1", got)
		}
		// Wait out the first destage's completion: the block owes a
		// second destage, so it must still be pinned dirty.
		p.Sleep(sim.Millis(2))
		b, ok := r.cache.Peek(r.f, 0)
		if !ok || !b.Dirty() {
			t.Error("stale completion unpinned a re-dirtied block")
		}
		ver := r.fl.Commit(p, r.f, 0, 0)
		if ver == 0 {
			t.Error("commit returned zero verifier")
		}
		if r.fl.DirtyBlocks() != 0 {
			t.Errorf("commit returned with %d blocks still owed", r.fl.DirtyBlocks())
		}
	})
	r.s.Run()
	if st := r.fl.Stats(); st.BlocksFlushed != 2 {
		t.Fatalf("BlocksFlushed = %d, want 2 (both generations destaged)", st.BlocksFlushed)
	}
}

// TestCrashDiscardsDirtyAndRollsVerifier is the data-loss contract: a
// crash forgets every block awaiting destage and changes the verifier,
// so clients comparing verifiers can detect the loss.
func TestCrashDiscardsDirtyAndRollsVerifier(t *testing.T) {
	// LowWater 8 keeps the flusher idle long enough for the crash to
	// find the dirty ledger intact (the flusher still drains it, but
	// the writes below all land at t=0 before any destage completes).
	r := newRig(t, Config{HighWater: 64, LowWater: 8, MaxBatch: 8}, 64, 32)
	before := r.fl.Verifier()
	r.s.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			r.write(p, 2*i)
		}
		dirtyAtCrash := len(r.fl.dirty)
		if dirtyAtCrash == 0 {
			t.Fatal("setup: nothing dirty at crash time")
		}
		r.fl.Crash()
		r.cache.FlushAll()
		if r.fl.Verifier() == before {
			t.Error("crash did not roll the verifier")
		}
		if len(r.fl.dirty) != 0 {
			t.Errorf("crash left %d blocks in the dirty ledger", len(r.fl.dirty))
		}
		if got := r.fl.Stats().LostBlocks; got != uint64(dirtyAtCrash) {
			t.Errorf("LostBlocks = %d, want %d", got, dirtyAtCrash)
		}
	})
	r.s.Run()
}

// TestCrashReleasesThrottledWriters checks a writer blocked at the
// high-water mark is not stranded by a crash (its handler dies with the
// host; it must not hang the simulation).
func TestCrashReleasesThrottledWriters(t *testing.T) {
	cfg := Config{HighWater: 2, LowWater: 1, MaxBatch: 1}
	r := newRig(t, cfg, 64, 32)
	resumed := false
	r.s.Go("writer", func(p *sim.Proc) {
		r.write(p, 0)
		r.write(p, 2) // reaches high water: blocks
		resumed = true
	})
	r.s.Go("crasher", func(p *sim.Proc) {
		p.Yield() // let the writer reach the throttle
		r.fl.Crash()
		r.cache.FlushAll()
	})
	r.s.Run()
	if !resumed {
		t.Fatal("throttled writer never resumed after the crash")
	}
}
