package main

import (
	"testing"

	"danas/internal/core"
	"danas/internal/dafs"
	"danas/internal/exper"
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/netsim"
	"danas/internal/nic"
	"danas/internal/rpc"
	"danas/internal/sim"
	"danas/internal/udpip"
	"danas/internal/vi"
	"danas/internal/wire"
)

// eventsPerOp is the unit of the simulation events a microbenchmark
// executes per operation.
const eventsPerOp = "events/op"

// microBench is one per-layer microbenchmark: a primitive of one layer
// driven in a loop on a minimal rig. The traced run calls these through
// testing.Benchmark; BenchmarkMicro runs the same functions under
// go test -bench.
type microBench struct {
	Name string
	Fn   func(b *testing.B)
}

var micros = []microBench{
	{"sim.post_fire", benchPostFire},
	{"sim.deep_queue_post_fire", benchDeepQueuePostFire},
	{"sim.block_wake", benchBlockWake},
	{"sim.station_wait", benchStationWait},
	{"sim.signal_wait", benchSignalWait},
	{"netsim.star_hop", func(b *testing.B) { benchHop(b, false) }},
	{"netsim.crossleaf_hop", func(b *testing.B) { benchHop(b, true) }},
	{"rpc.udp_rtt", benchUDPRTT},
	{"dafs.vi_rtt", benchVIRTT},
	{"vi.rdma_get", benchRDMAGet},
	{"core.cache_hit", benchCacheHit},
}

// runSim runs s to quiescence as the measured part of a microbenchmark
// and reports the events it executed per operation.
func runSim(b *testing.B, s *sim.Scheduler) {
	b.ReportAllocs()
	ev0 := s.Events()
	b.ResetTimer()
	s.Run()
	b.StopTimer()
	b.ReportMetric(float64(s.Events()-ev0)/float64(b.N), eventsPerOp)
}

// chain posts n events one nanosecond apart, each posted by the one
// before, so the chain adds one event at a time to the queue.
func chain(s *sim.Scheduler, n int) {
	i := 0
	var fire func()
	fire = func() {
		if i++; i < n {
			s.After(1, fire)
		}
	}
	s.After(1, fire)
}

// benchPostFire: an op is one post and one fire on a queue holding one
// event.
func benchPostFire(b *testing.B) {
	s := sim.New()
	defer s.Close()
	chain(s, b.N)
	runSim(b, s)
}

// benchDeepQueuePostFire is benchPostFire behind 10 000 pending events
// due after the measured chain ends.
func benchDeepQueuePostFire(b *testing.B) {
	s := sim.New()
	defer s.Close()
	far := sim.Duration(b.N) + sim.Second
	for i := 0; i < 10000; i++ {
		s.After(far+sim.Duration(i), func() {})
	}
	chain(s, b.N)
	b.ReportAllocs()
	ev0 := s.Events()
	b.ResetTimer()
	s.RunUntil(sim.Time(b.N))
	b.StopTimer()
	b.ReportMetric(float64(s.Events()-ev0)/float64(b.N), eventsPerOp)
}

// benchBlockWake: one Proc sleeps b.N times; an op is one post, one
// handoff from the loop to the Proc, and one back.
func benchBlockWake(b *testing.B) {
	s := sim.New()
	defer s.Close()
	s.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	runSim(b, s)
}

// benchStationWait: one Proc runs b.N jobs through a station.
func benchStationWait(b *testing.B) {
	s := sim.New()
	defer s.Close()
	st := sim.NewStation(s, "station")
	s.Go("worker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			st.Wait(p, 1)
		}
	})
	runSim(b, s)
}

// benchSignalWait: one Proc waits b.N times on a fresh signal an event
// fires, the pattern every completion in the stack uses.
func benchSignalWait(b *testing.B) {
	s := sim.New()
	defer s.Close()
	s.Go("waiter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			sig := sim.NewSignal(s)
			s.After(1, sig.Fire)
			sig.Wait(p)
		}
	})
	runSim(b, s)
}

// line is the paper's host link.
func line(p *host.Params) netsim.LineConfig {
	return netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}
}

// benchHop sends b.N 4 KB frames one after another between two hosts,
// on one switch or across a leaf/spine fabric.
func benchHop(b *testing.B, crossLeaf bool) {
	s := sim.New()
	defer s.Close()
	p := host.Default()
	fab := netsim.NewFabric(s, p.SwitchLatency)
	leaf := 0
	if crossLeaf {
		fab = netsim.NewFabricWith(s, netsim.Topology{
			Leaves: 2, Spines: 1, Oversub: 1,
			DownlinkBandwidth: p.LinkBandwidth,
			TrunkOverhead:     p.FrameOverhead,
			LeafLatency:       p.SwitchLatency,
			SpineLatency:      p.SwitchLatency,
			TrunkProp:         p.LinkPropDelay,
		})
		leaf = 1
	}
	src := fab.AddLeafPort("src", line(p), 0)
	dst := fab.AddLeafPort("dst", line(p), leaf)
	src.Attach(netsim.SinkFunc(func(*netsim.Frame) {}))
	n := 0
	dst.Attach(netsim.SinkFunc(func(f *netsim.Frame) {
		if n++; n < b.N {
			src.Send(f)
		}
	}))
	fab.MustArm()
	src.Send(&netsim.Frame{To: dst, Bytes: 4096})
	runSim(b, s)
}

// rig is two hosts on one switch.
type rig struct {
	s              *sim.Scheduler
	client, server *nic.NIC
}

func newRig() rig {
	s := sim.New()
	p := host.Default()
	fab := netsim.NewFabric(s, p.SwitchLatency)
	return rig{
		s:      s,
		client: nic.New(host.New(s, "client", p), fab.AddPort("client", line(p))),
		server: nic.New(host.New(s, "server", p), fab.AddPort("server", line(p))),
	}
}

// benchUDPRTT: b.N null RPCs over UDP/IP to an echo server.
func benchUDPRTT(b *testing.B) {
	r := newRig()
	defer r.s.Close()
	ss := udpip.NewStack(r.server)
	rpc.NewServer(r.s, ss, 2049, 1, func(_ *sim.Proc, req *rpc.Request) *rpc.Reply {
		return &rpc.Reply{Hdr: &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusOK}}
	})
	cl := rpc.NewClient(r.s, udpip.NewStack(r.client), 1001, ss, 2049)
	r.s.Go("caller", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			cl.Call(p, &wire.Header{Op: wire.OpGetattr}, rpc.CallOpts{})
		}
	})
	runSim(b, r.s)
}

// benchVIRTT: b.N DAFS getattr round trips over VI to a DAFS server.
func benchVIRTT(b *testing.B) {
	r := newRig()
	defer r.s.Close()
	fs := fsim.NewFS()
	if _, err := fs.Create("f", 4096); err != nil {
		b.Fatal(err)
	}
	disk := fsim.NewDisk(r.s, "disk", 0, 0)
	srv := dafs.NewServer(r.s, r.server, fs, fsim.NewServerCache(fs, disk, 4096, 16), false)
	cl := dafs.NewClient(r.s, r.client, srv, nic.Poll, dafs.Direct)
	var h *nas.Handle
	r.s.Go("open", func(p *sim.Proc) { h, _ = cl.Open(p, "f") })
	r.s.Run()
	if h == nil {
		b.Fatal("bench: dafs open failed")
	}
	r.s.Go("caller", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.Getattr(p, h); err != nil {
				b.Error(err)
				return
			}
		}
	})
	runSim(b, r.s)
}

// benchRDMAGet: b.N 4 KB RDMA gets of an exported server buffer.
func benchRDMAGet(b *testing.B) {
	r := newRig()
	defer r.s.Close()
	qp, _ := vi.Connect(r.client, r.server, 1, 1, nic.Poll, nic.Poll)
	seg := r.server.TPT.Export(4096)
	r.s.Go("getter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if res := qp.RDMA(p, nic.Get, seg.VA, 4096, seg.Cap); !res.OK() {
				b.Errorf("bench: rdma get: %v", res.Status)
				return
			}
		}
	})
	runSim(b, r.s)
}

// benchCacheHit: b.N reads of one block already in the ODAFS client
// cache.
func benchCacheHit(b *testing.B) {
	cfg := exper.DefaultClusterConfig()
	cfg.ServerCacheBlockSize = 4096
	cl := exper.NewCluster(cfg)
	defer cl.Close()
	cl.CreateWarmFile("f", 4096)
	cc := cl.CachedClient(0, core.Config{BlockSize: 4096, DataBlocks: 4, Headers: 16, UseORDMA: true})
	var h *nas.Handle
	cl.Go("warm", func(p *sim.Proc) {
		if h, _ = cc.Open(p, "f"); h != nil {
			cc.Read(p, h, 0, 4096, 1)
		}
	})
	cl.Run()
	if h == nil {
		b.Fatal("bench: open failed")
	}
	cl.Go("reader", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := cc.Read(p, h, 0, 4096, 1); err != nil {
				b.Error(err)
				return
			}
		}
	})
	runSim(b, cl.S)
}
