package fsim

import (
	"bytes"
	"testing"
	"testing/quick"

	"danas/internal/sim"
)

func TestCreateLookupRemove(t *testing.T) {
	fs := NewFS()
	f, err := fs.Create("a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1000 {
		t.Fatalf("size %d", f.Size())
	}
	if _, err := fs.Create("a", 10); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	g, err := fs.Lookup("a")
	if err != nil || g != f {
		t.Fatal("lookup failed")
	}
	if h, err := fs.ByID(f.ID); err != nil || h != f {
		t.Fatal("ByID failed")
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup("a"); err == nil {
		t.Fatal("lookup after remove succeeded")
	}
	if err := fs.Remove("a"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestSyntheticContentDeterministic(t *testing.T) {
	fs := NewFS()
	f, _ := fs.Create("a", 1<<16)
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	f.ReadAt(a, 8192)
	f.ReadAt(b, 8192)
	if !bytes.Equal(a, b) {
		t.Fatal("content not deterministic")
	}
	f.ReadAt(b, 8193)
	if bytes.Equal(a, b) {
		t.Fatal("shifted read should differ")
	}
	// Different files differ.
	g, _ := fs.Create("b", 1<<16)
	g.ReadAt(b, 8192)
	if bytes.Equal(a, b) {
		t.Fatal("two files share content")
	}
}

func TestReadAtEOF(t *testing.T) {
	fs := NewFS()
	f, _ := fs.Create("a", 100)
	p := make([]byte, 64)
	if n := f.ReadAt(p, 90); n != 10 {
		t.Fatalf("short read n=%d, want 10", n)
	}
	if n := f.ReadAt(p, 100); n != 0 {
		t.Fatalf("read at EOF n=%d", n)
	}
}

func TestWriteReadBack(t *testing.T) {
	fs := NewFS()
	f, _ := fs.Create("a", 200000)
	msg := []byte("hello, direct access storage")
	f.WriteAt(msg, 131000) // crosses an overlay chunk boundary region
	got := make([]byte, len(msg))
	f.ReadAt(got, 131000)
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
	// Synthetic content before the write is preserved.
	pre := make([]byte, 10)
	f.ReadAt(pre, 130990)
	fresh := NewFS()
	f2, _ := fresh.Create("a", 200000)
	pre2 := make([]byte, 10)
	f2.ReadAt(pre2, 130990)
	if !bytes.Equal(pre, pre2) {
		t.Fatal("write disturbed neighbouring synthetic content")
	}
}

func TestWriteExtends(t *testing.T) {
	fs := NewFS()
	f, _ := fs.Create("a", 10)
	f.WriteAt([]byte("xyz"), 100)
	if f.Size() != 103 {
		t.Fatalf("size %d after extending write", f.Size())
	}
	got := make([]byte, 3)
	f.ReadAt(got, 100)
	if string(got) != "xyz" {
		t.Fatalf("got %q", got)
	}
}

func TestTruncate(t *testing.T) {
	fs := NewFS()
	f, _ := fs.Create("a", 1<<20)
	f.WriteAt([]byte("data"), 500000)
	f.Truncate(1000)
	if f.Size() != 1000 {
		t.Fatalf("size %d", f.Size())
	}
	if len(f.overlay) != 0 {
		t.Fatal("truncate did not drop overlay chunks past EOF")
	}
}

// Property: WriteAt then ReadAt round-trips arbitrary data at arbitrary
// offsets.
func TestWriteReadProperty(t *testing.T) {
	fs := NewFS()
	f, _ := fs.Create("p", 1<<20)
	check := func(data []byte, offRaw uint32) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(offRaw % (1 << 20))
		f.WriteAt(data, off)
		got := make([]byte, len(data))
		f.ReadAt(got, off)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBlockRefBytes(t *testing.T) {
	fs := NewFS()
	f, _ := fs.Create("a", 10000)
	ref := BlockRef{File: f.ID, Off: 4096, Len: 1024}
	got, err := ref.Bytes(fs)
	if err != nil || len(got) != 1024 {
		t.Fatalf("ref bytes: %v len=%d", err, len(got))
	}
	want := make([]byte, 1024)
	f.ReadAt(want, 4096)
	if !bytes.Equal(got, want) {
		t.Fatal("ref content mismatch")
	}
	if _, err := (BlockRef{File: 999}).Bytes(fs); err == nil {
		t.Fatal("dangling ref resolved")
	}
}

func TestDiskTiming(t *testing.T) {
	s := sim.New()
	defer s.Close()
	d := NewDisk(s, "d", sim.Millis(5), 40e6)
	var end sim.Time
	s.Go("r", func(p *sim.Proc) {
		d.Read(p, 40e6/1000) // 1ms of media transfer
		end = p.Now()
	})
	s.Run()
	if end != sim.Time(6*sim.Millisecond) {
		t.Fatalf("read finished at %v, want 6ms", sim.Duration(end))
	}
	if d.Reads != 1 || d.BytesRead != 40e3 {
		t.Fatalf("stats %d/%d", d.Reads, d.BytesRead)
	}
}

func newCacheRig(t *testing.T, blockSize int64, capacity int) (*sim.Scheduler, *FS, *ServerCache) {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	fs := NewFS()
	disk := NewDisk(s, "disk", sim.Millis(5), 40e6)
	return s, fs, NewServerCache(fs, disk, blockSize, capacity)
}

func TestServerCacheHitMiss(t *testing.T) {
	s, fs, c := newCacheRig(t, 4096, 100)
	f, _ := fs.Create("a", 64*1024)
	s.Go("r", func(p *sim.Proc) {
		if _, hit := c.Get(p, f, 0); hit {
			t.Error("cold read hit")
		}
		if _, hit := c.Get(p, f, 100); !hit { // same block
			t.Error("warm re-read missed")
		}
		if c.Hits != 1 || c.Misses != 1 {
			t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
		}
	})
	s.Run()
	if sim.Duration(s.Now()) < sim.Millis(5) {
		t.Fatal("miss did not pay disk time")
	}
}

func TestServerCacheWarm(t *testing.T) {
	s, fs, c := newCacheRig(t, 4096, 1000)
	f, _ := fs.Create("a", 100*4096)
	c.Warm(f)
	if c.Len() != 100 {
		t.Fatalf("warm cached %d blocks", c.Len())
	}
	s.Go("r", func(p *sim.Proc) {
		for off := int64(0); off < f.Size(); off += 4096 {
			if _, hit := c.Get(p, f, off); !hit {
				t.Errorf("miss at %d after Warm", off)
			}
		}
	})
	s.Run()
	if s.Now() != 0 {
		t.Fatal("warm hits should cost no device time")
	}
}

func TestServerCacheEvictionHook(t *testing.T) {
	s, fs, c := newCacheRig(t, 4096, 4)
	f, _ := fs.Create("a", 10*4096)
	var evicted []BlockKey
	c.OnEvict = func(b *CacheBlock) { evicted = append(evicted, b.Key) }
	s.Go("r", func(p *sim.Proc) {
		for off := int64(0); off < f.Size(); off += 4096 {
			c.Get(p, f, off)
		}
	})
	s.Run()
	if c.Len() != 4 {
		t.Fatalf("resident %d, want capacity 4", c.Len())
	}
	if len(evicted) != 6 {
		t.Fatalf("evictions %d, want 6", len(evicted))
	}
	// LRU: the first-read blocks go first.
	if evicted[0] != (BlockKey{File: f.ID, Off: 0}) {
		t.Fatalf("first eviction %+v", evicted[0])
	}
}

func TestServerCacheTailBlock(t *testing.T) {
	s, fs, c := newCacheRig(t, 4096, 10)
	f, _ := fs.Create("a", 4096+100) // tail block is 100 bytes
	s.Go("r", func(p *sim.Proc) {
		b, _ := c.Get(p, f, 4096)
		if b.Len != 100 {
			t.Errorf("tail block len %d, want 100", b.Len)
		}
	})
	s.Run()
}

func TestEvictFraction(t *testing.T) {
	s, fs, c := newCacheRig(t, 4096, 1000)
	defer s.Close()
	f, _ := fs.Create("a", 200*4096)
	c.Warm(f)
	r := sim.NewRand(42)
	c.EvictFraction(f, 0.5, r)
	got := c.Len()
	if got < 60 || got > 140 {
		t.Fatalf("after evicting ~50%%, %d blocks remain of 200", got)
	}
}

// Two reads that miss the same block while its disk read is in flight
// both fill it. The second fill must reuse the resident block: one map
// entry, one LRU element and one export, so a crash's FlushAll leaves
// no export valid.
func TestServerCacheConcurrentFillKeepsOneBlock(t *testing.T) {
	s, fs, c := newCacheRig(t, 4096, 100)
	f, _ := fs.Create("a", 64*1024)
	type export struct{ valid bool }
	var exports []*export
	c.OnInsert = func(b *CacheBlock) {
		e := &export{valid: true}
		exports = append(exports, e)
		b.Export = e
	}
	c.OnEvict = func(b *CacheBlock) { b.Export.(*export).valid = false }
	for _, name := range []string{"r1", "r2"} {
		s.Go(name, func(p *sim.Proc) {
			if _, hit := c.Get(p, f, 0); hit {
				t.Errorf("%s: cold read hit", name)
			}
		})
	}
	s.Run()
	if lru := c.lruKeys(t); c.Len() != 1 || len(lru) != 1 || len(exports) != 1 {
		t.Fatalf("map %d, LRU %d, exports %d after two fills of one block; want 1 each",
			c.Len(), len(lru), len(exports))
	}
	if c.Misses != 2 || sim.Duration(s.Now()) < sim.Millis(10) {
		t.Fatalf("misses %d at %v: both fills must pay their lookup and disk read", c.Misses, sim.Duration(s.Now()))
	}
	c.FlushAll()
	for i, e := range exports {
		if e.valid {
			t.Fatalf("export %d still valid after FlushAll", i)
		}
	}
}
