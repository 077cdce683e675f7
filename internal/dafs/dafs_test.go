package dafs

import (
	"testing"

	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/netsim"
	"danas/internal/nic"
	"danas/internal/sim"
)

type rig struct {
	s          *sim.Scheduler
	p          *host.Params
	fs         *fsim.FS
	sc         *fsim.ServerCache
	srv        *Server
	serverHost *host.Host
	serverNIC  *nic.NIC
	fab        *netsim.Fabric
	cfg        netsim.LineConfig
	nclients   int
}

func newRig(t *testing.T, optimistic bool, cacheBlocks int) *rig {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	p := host.Default()
	fab := netsim.NewFabric(s, p.SwitchLatency)
	cfg := netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}
	sh := host.New(s, "server", p)
	sn := nic.New(sh, fab.AddPort("server", cfg))
	fs := fsim.NewFS()
	disk := fsim.NewDisk(s, "disk", p.DiskSeek, p.DiskBW)
	sc := fsim.NewServerCache(fs, disk, 16*1024, cacheBlocks)
	srv := NewServer(s, sn, fs, sc, optimistic)
	return &rig{s: s, p: p, fs: fs, sc: sc, srv: srv, serverHost: sh, serverNIC: sn, fab: fab, cfg: cfg}
}

func (r *rig) newClient(t *testing.T, mode nic.NotifyMode, tm TransferMode) *Client {
	t.Helper()
	r.nclients++
	name := "client" + string(rune('A'+r.nclients-1))
	ch := host.New(r.s, name, r.p)
	cn := nic.New(ch, r.fab.AddPort(name, r.cfg))
	return NewClient(r.s, cn, r.srv, mode, tm)
}

func TestOpenReadDirect(t *testing.T) {
	r := newRig(t, false, 1<<16)
	f, _ := r.fs.Create("data", 1<<20)
	r.sc.Warm(f)
	c := r.newClient(t, nic.Poll, Direct)
	r.s.Go("app", func(p *sim.Proc) {
		h, err := c.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		n, ref, err := c.ReadDirect(p, h, 0, 65536, 1)
		if err != nil || n != 65536 {
			t.Errorf("read: n=%d err=%v", n, err)
		}
		if ref != nil {
			t.Error("non-optimistic server piggybacked a reference")
		}
	})
	r.s.Run()
	// Data moved by RDMA put into the client.
	if st := c.n.StatsSnapshot(); st.PutsServed != 1 {
		t.Fatalf("client NIC served %d puts, want 1", st.PutsServed)
	}
	if r.srv.Reads != 1 {
		t.Fatalf("server reads %d", r.srv.Reads)
	}
}

func TestReadInlineCarriesPayload(t *testing.T) {
	r := newRig(t, false, 1<<16)
	f, _ := r.fs.Create("data", 1<<20)
	r.sc.Warm(f)
	c := r.newClient(t, nic.Poll, Inline)
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		n, err := c.Read(p, h, 4096, 4096, 1)
		if err != nil || n != 4096 {
			t.Errorf("inline read: n=%d err=%v", n, err)
		}
	})
	r.s.Run()
	if st := c.n.StatsSnapshot(); st.PutsServed != 0 {
		t.Fatal("inline read must not use RDMA")
	}
}

func TestOptimisticServerPiggybacksRefs(t *testing.T) {
	r := newRig(t, true, 1<<16)
	f, _ := r.fs.Create("data", 1<<20)
	r.sc.Warm(f)
	c := r.newClient(t, nic.Poll, Direct)
	var ref *struct{}
	_ = ref
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		_, rr, err := c.ReadDirect(p, h, 16384, 16384, 1)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if rr == nil || rr.VA == 0 || rr.Len != 16384 {
			t.Errorf("piggybacked ref %+v", rr)
		}
	})
	r.s.Run()
	if r.serverNIC.TPT.Entries() == 0 {
		t.Fatal("optimistic server exported nothing")
	}
}

func TestExportsInvalidatedOnEviction(t *testing.T) {
	r := newRig(t, true, 4) // tiny server cache: 4 blocks of 16KB
	r.fs.Create("data", 1<<20)
	c := r.newClient(t, nic.Poll, Direct)
	var refs []uint64
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		for i := int64(0); i < 8; i++ {
			_, rr, err := c.ReadDirect(p, h, i*16384, 16384, 1)
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if rr != nil {
				refs = append(refs, rr.VA)
			}
		}
	})
	r.s.Run()
	// Capacity 4: only 4 blocks' exports can remain valid.
	if got := r.serverNIC.TPT.Entries(); got != 4*4 { // 16KB blocks = 4 pages each
		t.Fatalf("TPT entries %d, want 16 (4 blocks x 4 pages)", got)
	}
	if len(refs) != 8 {
		t.Fatalf("collected %d refs", len(refs))
	}
}

func TestBatchReadAmortizesClientCalls(t *testing.T) {
	r := newRig(t, false, 1<<16)
	f, _ := r.fs.Create("data", 1<<22)
	r.sc.Warm(f)
	c := r.newClient(t, nic.Poll, Direct)
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		offs := []int64{0, 16384, 32768, 49152}
		n, err := c.BatchReadDirect(p, h, offs, 16384, 1)
		if err != nil || n != 4*16384 {
			t.Errorf("batch read: n=%d err=%v, want total across ranges", n, err)
		}
	})
	r.s.Run()
	if c.Calls != 2 { // open + one batch
		t.Fatalf("client calls %d, want 2", c.Calls)
	}
	if r.srv.Reads != 4 {
		t.Fatalf("server reads %d, want 4 ranges", r.srv.Reads)
	}
	if st := c.n.StatsSnapshot(); st.PutsServed != 4 {
		t.Fatalf("puts %d, want 4", st.PutsServed)
	}
}

func TestWriteDirect(t *testing.T) {
	r := newRig(t, false, 1<<16)
	r.fs.Create("data", 1<<20)
	c := r.newClient(t, nic.Poll, Direct)
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		n, err := c.Write(p, h, 0, 32768, 3)
		if err != nil || n != 32768 {
			t.Errorf("write: n=%d err=%v", n, err)
		}
	})
	r.s.Run()
	// Server pulled the data with a get served by the client NIC.
	if st := c.n.StatsSnapshot(); st.GetsServed != 1 {
		t.Fatalf("gets served at client NIC = %d, want 1", st.GetsServed)
	}
}

func TestWriteDataContent(t *testing.T) {
	r := newRig(t, false, 1<<16)
	r.fs.Create("db", 0)
	c := r.newClient(t, nic.Poll, Direct)
	data := []byte("hello dafs")
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "db")
		if _, err := c.WriteData(p, h, 0, data); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	r.s.Run()
	f, _ := r.fs.Lookup("db")
	got := make([]byte, len(data))
	f.ReadAt(got, 0)
	if string(got) != string(data) {
		t.Fatalf("content %q", got)
	}
}

// TestIdleRecordHoldsNoPayload checks that a WriteData's task drops
// the request it ran when it finishes: the record the client's driver
// holds idle afterwards (the one it hands out next) pins no payload
// bytes, handle or completion record.
func TestIdleRecordHoldsNoPayload(t *testing.T) {
	r := newRig(t, false, 1<<16)
	r.fs.Create("db", 0)
	c := r.newClient(t, nic.Poll, Direct)
	r.s.Go("app", func(p *sim.Proc) {
		h, err := c.Open(p, "db")
		if err == nil {
			_, err = c.WriteData(p, h, 0, []byte("hello dafs"))
		}
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		idle := c.Take(p)
		defer c.Put(idle)
		if tk := idle.Task; tk.data != nil || tk.h != nil || tk.call != nil {
			t.Errorf("idle record holds payload %q, handle %v, call %p", tk.data, tk.h, tk.call)
		}
	})
	r.s.Run()
}

func TestConcurrentOutstandingReads(t *testing.T) {
	r := newRig(t, false, 1<<16)
	f, _ := r.fs.Create("data", 1<<22)
	r.sc.Warm(f)
	c := r.newClient(t, nic.Poll, Direct)
	done := 0
	r.s.Go("opener", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		for i := 0; i < 8; i++ {
			off := int64(i) * 65536
			bufID := uint64(i)
			r.s.Go("reader", func(p *sim.Proc) {
				if _, _, err := c.ReadDirect(p, h, off, 65536, bufID); err != nil {
					t.Errorf("read: %v", err)
				}
				done++
			})
		}
	})
	r.s.Run()
	if done != 8 {
		t.Fatalf("completed %d/8 concurrent reads", done)
	}
}

func TestRegistrationCachingAcrossReads(t *testing.T) {
	r := newRig(t, false, 1<<16)
	f, _ := r.fs.Create("data", 1<<22)
	r.sc.Warm(f)
	c := r.newClient(t, nic.Poll, Direct)
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		for i := 0; i < 10; i++ {
			c.ReadDirect(p, h, int64(i)*65536, 65536, 42)
		}
	})
	r.s.Run()
	if c.regs.Misses != 1 || c.regs.Hits != 9 {
		t.Fatalf("reg cache hits=%d misses=%d, want 9/1", c.regs.Hits, c.regs.Misses)
	}
}

func TestServerPollingModeReducesCPU(t *testing.T) {
	measure := func(mode nic.NotifyMode) sim.Duration {
		r := newRig(t, false, 1<<16)
		r.srv.Mode = mode
		f, _ := r.fs.Create("data", 1<<22)
		r.sc.Warm(f)
		c := r.newClient(t, nic.Poll, Direct)
		r.s.Go("app", func(p *sim.Proc) {
			h, _ := c.Open(p, "data")
			r.serverHost.CPU.MarkEpoch()
			for i := 0; i < 16; i++ {
				c.ReadDirect(p, h, int64(i)*4096, 4096, 1)
			}
		})
		r.s.Run()
		return r.serverHost.CPU.BusyTime()
	}
	intr, poll := measure(nic.Intr), measure(nic.Poll)
	if poll >= intr {
		t.Fatalf("polling server CPU %v >= interrupt mode %v", poll, intr)
	}
}

func TestErrors(t *testing.T) {
	r := newRig(t, false, 1<<16)
	c := r.newClient(t, nic.Poll, Direct)
	r.s.Go("app", func(p *sim.Proc) {
		if _, err := c.Open(p, "nope"); err == nil {
			t.Error("open of missing file succeeded")
		}
		if _, err := c.Create(p, "x"); err != nil {
			t.Errorf("create: %v", err)
		}
		if _, err := c.Create(p, "x"); err == nil {
			t.Error("duplicate create succeeded")
		}
		if err := c.Remove(p, "ghost"); err == nil {
			t.Error("remove of missing file succeeded")
		}
	})
	r.s.Run()
}

// TestWarmReadAllocations pins the allocations of one warm 16 KB read,
// client and server together, per transfer mode: a reader process serves
// one read per token it takes from a queue, so a round allocates only
// what the request itself does. The server's session state is created
// once, and the call, message and RDMA put records are recycled; a
// regression that allocates per request shows here.
func TestWarmReadAllocations(t *testing.T) {
	budget := map[TransferMode]float64{Direct: 0, Inline: 0}
	r := newRig(t, false, 1<<16)
	f, _ := r.fs.Create("data", 1<<20)
	r.sc.Warm(f)
	for _, tm := range []TransferMode{Direct, Inline} {
		c := r.newClient(t, nic.Poll, tm)
		var h *nas.Handle
		r.s.Go("open", func(p *sim.Proc) { h, _ = c.Open(p, "data") })
		r.s.Run()
		tokens := sim.NewQueue[int](r.s, "tokens")
		r.s.Go("reader", func(p *sim.Proc) {
			for {
				tokens.Get(p)
				if n, err := c.Read(p, h, 0, 16384, 1); err != nil || n != 16384 {
					t.Errorf("read: n=%d err=%v", n, err)
				}
			}
		})
		round := func() { tokens.Put(0); r.s.Run() }
		for range 8 {
			round()
		}
		got := testing.AllocsPerRun(50, round)
		t.Logf("%s: %.1f allocations per warm read", c.Name(), got)
		if got > budget[tm] {
			t.Errorf("%s: a warm read allocates %.1f times, budget %.0f", c.Name(), got, budget[tm])
		}
	}
}
