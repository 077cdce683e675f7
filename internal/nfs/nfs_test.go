package nfs

import (
	"testing"

	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/netsim"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/udpip"
)

type rig struct {
	s          *sim.Scheduler
	p          *host.Params
	fs         *fsim.FS
	cache      *fsim.ServerCache
	server     *Server
	serverHost *host.Host
	clients    map[Kind]*Client
	clientHost map[Kind]*host.Host
	clientNIC  map[Kind]*nic.NIC
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	p := host.Default()
	fab := netsim.NewFabric(s, p.SwitchLatency)
	cfg := netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}

	sh := host.New(s, "server", p)
	sn := nic.New(sh, fab.AddPort("server", cfg))
	ss := udpip.NewStack(sn)
	fs := fsim.NewFS()
	disk := fsim.NewDisk(s, "disk", p.DiskSeek, p.DiskBW)
	sc := fsim.NewServerCache(fs, disk, 16*1024, 1<<16)
	server := NewServer(s, ss, fs, sc, 8)

	r := &rig{
		s: s, p: p, fs: fs, cache: sc, server: server, serverHost: sh,
		clients:    make(map[Kind]*Client),
		clientHost: make(map[Kind]*host.Host),
		clientNIC:  make(map[Kind]*nic.NIC),
	}
	for i, kind := range []Kind{Standard, PrePosting, Hybrid} {
		ch := host.New(s, kind.String(), p)
		cn := nic.New(ch, fab.AddPort(kind.String(), cfg))
		cs := udpip.NewStack(cn)
		r.clients[kind] = NewClient(s, cs, 1000+i, ss, kind)
		r.clientHost[kind] = ch
		r.clientNIC[kind] = cn
	}
	return r
}

func TestOpenReadAllVariants(t *testing.T) {
	r := newRig(t)
	f, _ := r.fs.Create("data", 1<<20)
	r.cache.Warm(f)
	for kind, c := range r.clients {
		kind, c := kind, c
		r.s.Go("app", func(p *sim.Proc) {
			h, err := c.Open(p, "data")
			if err != nil {
				t.Errorf("%v open: %v", kind, err)
				return
			}
			if h.Size != 1<<20 {
				t.Errorf("%v size %d", kind, h.Size)
			}
			got, err := c.Read(p, h, 0, 65536, 1)
			if err != nil || got != 65536 {
				t.Errorf("%v read: n=%d err=%v", kind, got, err)
			}
			// Short read at EOF.
			got, err = c.Read(p, h, 1<<20-100, 4096, 1)
			if err != nil || got != 100 {
				t.Errorf("%v tail read: n=%d err=%v", kind, got, err)
			}
		})
	}
	r.s.Run()
}

func TestOpenMissing(t *testing.T) {
	r := newRig(t)
	r.s.Go("app", func(p *sim.Proc) {
		if _, err := r.clients[Standard].Open(p, "ghost"); err != nas.ErrNoEnt {
			t.Errorf("open missing: %v", err)
		}
	})
	r.s.Run()
}

func TestStandardPaysCopies(t *testing.T) {
	r := newRig(t)
	f, _ := r.fs.Create("data", 1<<20)
	r.cache.Warm(f)
	busy := make(map[Kind]sim.Duration)
	for _, kind := range []Kind{Standard, PrePosting, Hybrid} {
		kind := kind
		c := r.clients[kind]
		ch := r.clientHost[kind]
		r.s.Go("app", func(p *sim.Proc) {
			h, _ := c.Open(p, "data")
			ch.CPU.MarkEpoch()
			for i := 0; i < 4; i++ {
				if _, err := c.Read(p, h, int64(i)*65536, 65536, 1); err != nil {
					t.Errorf("%v: %v", kind, err)
				}
			}
			busy[kind] = ch.CPU.BusyTime()
		})
	}
	r.s.Run()
	if busy[Standard] < 4*r.clientHost[Standard].CopyCost(65536) {
		t.Fatalf("standard client busy %v: copies not charged", busy[Standard])
	}
	if busy[PrePosting] >= busy[Standard] || busy[Hybrid] >= busy[Standard] {
		t.Fatalf("RDDP clients should use less CPU: std=%v pp=%v hy=%v",
			busy[Standard], busy[PrePosting], busy[Hybrid])
	}
}

func TestPrePostingDirectPlacement(t *testing.T) {
	r := newRig(t)
	f, _ := r.fs.Create("data", 1<<20)
	r.cache.Warm(f)
	c := r.clients[PrePosting]
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		c.Read(p, h, 0, 65536, 1)
	})
	r.s.Run()
	if st := r.clientNIC[PrePosting].StatsSnapshot(); st.DirectPlacements == 0 {
		t.Fatal("pre-posting read did not use direct placement")
	}
	// Registration is per-I/O: nothing should remain pinned.
	if pins := r.clientHost[PrePosting].VM.PinnedPages(); pins != 0 {
		t.Fatalf("%d pages still pinned after I/O", pins)
	}
}

func TestHybridUsesRDMAAndCachesRegistrations(t *testing.T) {
	r := newRig(t)
	f, _ := r.fs.Create("data", 1<<20)
	r.cache.Warm(f)
	c := r.clients[Hybrid]
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		for i := 0; i < 5; i++ {
			c.Read(p, h, int64(i)*65536, 65536, 7)
		}
	})
	r.s.Run()
	if st := r.clientNIC[Hybrid].StatsSnapshot(); st.PutsServed != 5 {
		t.Fatalf("puts served at client NIC = %d, want 5", st.PutsServed)
	}
	if c.RegCacheLen() != 1 {
		t.Fatalf("registration cache holds %d entries, want 1 (reused)", c.RegCacheLen())
	}
}

func TestWriteVariants(t *testing.T) {
	r := newRig(t)
	r.fs.Create("data", 1<<20)
	for kind, c := range r.clients {
		kind, c := kind, c
		r.s.Go("app", func(p *sim.Proc) {
			h, err := c.Open(p, "data")
			if err != nil {
				t.Errorf("%v: %v", kind, err)
				return
			}
			n, err := c.Write(p, h, 0, 32768, 2)
			if err != nil || n != 32768 {
				t.Errorf("%v write: n=%d err=%v", kind, n, err)
			}
		})
	}
	r.s.Run()
}

func TestWriteDataRoundTrips(t *testing.T) {
	r := newRig(t)
	r.fs.Create("db", 0)
	c := r.clients[Standard]
	payload := []byte("transactional payload")
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "db")
		if _, err := c.WriteData(p, h, 100, payload); err != nil {
			t.Errorf("write data: %v", err)
		}
	})
	r.s.Run()
	f, _ := r.fs.Lookup("db")
	got := make([]byte, len(payload))
	f.ReadAt(got, 100)
	if string(got) != string(payload) {
		t.Fatalf("server content %q", got)
	}
	if f.Size() != 100+int64(len(payload)) {
		t.Fatalf("size %d", f.Size())
	}
}

func TestCreateRemove(t *testing.T) {
	r := newRig(t)
	c := r.clients[Standard]
	r.s.Go("app", func(p *sim.Proc) {
		if _, err := c.Create(p, "new"); err != nil {
			t.Errorf("create: %v", err)
		}
		if _, err := c.Create(p, "new"); err != nas.ErrExist {
			t.Errorf("duplicate create: %v", err)
		}
		if err := c.Remove(p, "new"); err != nil {
			t.Errorf("remove: %v", err)
		}
		if err := c.Remove(p, "new"); err != nas.ErrNoEnt {
			t.Errorf("double remove: %v", err)
		}
	})
	r.s.Run()
}

func TestGetattr(t *testing.T) {
	r := newRig(t)
	r.fs.Create("f", 12345)
	c := r.clients[Standard]
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "f")
		size, err := c.Getattr(p, h)
		if err != nil || size != 12345 {
			t.Errorf("getattr: size=%d err=%v", size, err)
		}
		if _, err := c.Getattr(p, &nas.Handle{FH: 999}); err != nas.ErrStale {
			t.Errorf("stale getattr: %v", err)
		}
	})
	r.s.Run()
}

func TestColdReadPaysDisk(t *testing.T) {
	r := newRig(t)
	r.fs.Create("cold", 1<<20)
	c := r.clients[Standard]
	var elapsed sim.Duration
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "cold")
		start := p.Now()
		c.Read(p, h, 0, 65536, 1)
		elapsed = p.Now().Sub(start)
	})
	r.s.Run()
	if elapsed < r.p.DiskSeek {
		t.Fatalf("cold read took %v, below one disk seek", elapsed)
	}
}

// TestWarmReadAllocations pins the allocations of one warm 16 KB read,
// client and server together, per NFS variant: a reader process serves
// one read per token it takes from a queue, so a round allocates only
// what the request itself does. The server's worker state is created
// once, with the request held by value, and every per-request record
// (call, message, datagram, DRC entry, registration, pre-post, and the
// hybrid read's RDMA put record) is recycled; a regression that
// allocates per request shows here.
func TestWarmReadAllocations(t *testing.T) {
	budget := map[Kind]float64{Standard: 0, PrePosting: 0, Hybrid: 0}
	r := newRig(t)
	f, _ := r.fs.Create("data", 1<<20)
	r.cache.Warm(f)
	for _, kind := range []Kind{Standard, PrePosting, Hybrid} {
		c := r.clients[kind]
		var h *nas.Handle
		r.s.Go("open", func(p *sim.Proc) { h, _ = c.Open(p, "data") })
		r.s.Run()
		tokens := sim.NewQueue[int](r.s, "tokens")
		r.s.Go("reader", func(p *sim.Proc) {
			for {
				tokens.Get(p)
				if n, err := c.Read(p, h, 0, 16384, 1); err != nil || n != 16384 {
					t.Errorf("%v read: n=%d err=%v", kind, n, err)
				}
			}
		})
		round := func() { tokens.Put(0); r.s.Run() }
		for range 8 {
			round()
		}
		got := testing.AllocsPerRun(50, round)
		t.Logf("%v: %.1f allocations per warm read", kind, got)
		if got > budget[kind] {
			t.Errorf("%v: a warm read allocates %.1f times, budget %.0f", kind, got, budget[kind])
		}
	}
}
