package vi

import (
	"testing"

	"danas/internal/host"
	"danas/internal/netsim"
	"danas/internal/nic"
	"danas/internal/sim"
)

type rig struct {
	s      *sim.Scheduler
	p      *host.Params
	na, nb *nic.NIC
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	p := host.Default()
	fab := netsim.NewFabric(s, p.SwitchLatency)
	cfg := netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}
	na := nic.New(host.New(s, "a", p), fab.AddPort("a", cfg))
	nb := nic.New(host.New(s, "b", p), fab.AddPort("b", cfg))
	return &rig{s: s, p: p, na: na, nb: nb}
}

func TestSendRecv(t *testing.T) {
	r := newRig(t)
	qa, qb := Connect(r.na, r.nb, 1, 1, nic.Poll, nic.Poll)
	var got any
	r.s.Go("b", func(p *sim.Proc) { got = qb.Recv(p).Header })
	r.s.Go("a", func(p *sim.Proc) { qa.Send(p, &Msg{HeaderBytes: 32, Header: "req"}) })
	r.s.Run()
	if got != "req" {
		t.Fatalf("got %v", got)
	}
}

func TestPingPongPollMatchesGM(t *testing.T) {
	// VI-GM is a thin host library: VI-poll RTT must equal GM RTT
	// (paper Table 2 shows 23us for both).
	r := newRig(t)
	qa, qb := Connect(r.na, r.nb, 1, 1, nic.Poll, nic.Poll)
	var rtt sim.Duration
	r.s.Go("echo", func(p *sim.Proc) {
		qb.Recv(p)
		qb.Send(p, &Msg{HeaderBytes: 1})
	})
	r.s.Go("ping", func(p *sim.Proc) {
		start := p.Now()
		qa.Send(p, &Msg{HeaderBytes: 1})
		qa.Recv(p)
		rtt = p.Now().Sub(start)
	})
	r.s.Run()
	if rtt < 15*sim.Microsecond || rtt > 35*sim.Microsecond {
		t.Fatalf("VI poll RTT = %v, want ~23us ballpark", rtt)
	}
}

func TestBlockingModeSlower(t *testing.T) {
	measure := func(mode nic.NotifyMode) sim.Duration {
		r := newRig(t)
		qa, qb := Connect(r.na, r.nb, 1, 1, mode, mode)
		var rtt sim.Duration
		r.s.Go("echo", func(p *sim.Proc) {
			qb.Recv(p)
			qb.Send(p, &Msg{HeaderBytes: 1})
		})
		r.s.Go("ping", func(p *sim.Proc) {
			start := p.Now()
			qa.Send(p, &Msg{HeaderBytes: 1})
			qa.Recv(p)
			rtt = p.Now().Sub(start)
		})
		r.s.Run()
		return rtt
	}
	if b, pl := measure(nic.Intr), measure(nic.Poll); b-pl < 20*sim.Microsecond {
		t.Fatalf("blocking RTT %v vs poll %v: want ~+30us gap", b, pl)
	}
}

func TestRDMAGetThroughQP(t *testing.T) {
	r := newRig(t)
	qa, _ := Connect(r.na, r.nb, 1, 1, nic.Poll, nic.Poll)
	seg := r.nb.TPT.Export(4096)
	var res RDMAResult
	r.s.Go("a", func(p *sim.Proc) {
		res = qa.RDMA(p, nic.Get, seg.VA, 4096, seg.Cap)
	})
	r.s.Run()
	if !res.OK() {
		t.Fatalf("get failed: %v", res.Status)
	}
}

func TestRDMAExceptionIsSoftError(t *testing.T) {
	r := newRig(t)
	qa, _ := Connect(r.na, r.nb, 1, 1, nic.Poll, nic.Poll)
	seg := r.nb.TPT.Export(4096)
	r.nb.TPT.Invalidate(seg)
	var res RDMAResult
	recovered := false
	r.s.Go("a", func(p *sim.Proc) {
		res = qa.RDMA(p, nic.Get, seg.VA, 4096, seg.Cap)
		if !res.OK() {
			// The ODAFS pattern: catch the exception, recover via RPC.
			recovered = true
		}
	})
	r.s.Run()
	if res.Status != nic.StatusNotExported {
		t.Fatalf("status %v", res.Status)
	}
	if !recovered {
		t.Fatal("soft error did not reach the client handler")
	}
}

func TestRDMAAsync(t *testing.T) {
	r := newRig(t)
	qa, _ := Connect(r.na, r.nb, 1, 1, nic.Poll, nic.Poll)
	seg := r.nb.TPT.Export(8192)
	res := nic.StatusBadRequest
	qa.RDMAAsync(nic.Put, seg.VA, 8192, seg.Cap, func(st nic.Status) { res = st })
	r.s.Run()
	if res != nic.StatusOK {
		t.Fatalf("async put failed: %v", res)
	}
}

func TestSetMode(t *testing.T) {
	r := newRig(t)
	qa, _ := Connect(r.na, r.nb, 1, 1, nic.Intr, nic.Intr)
	if qa.Mode() != nic.Intr {
		t.Fatal("mode not set")
	}
	qa.SetMode(nic.Poll)
	if qa.Mode() != nic.Poll {
		t.Fatal("SetMode failed")
	}
}

// TestMessageStreamAllocatesNothing streams VI messages both ways over a
// connection, one side polling and the other taking interrupts, each
// received by a Listen loop, until the pools and rings have grown. A
// further round then allocates nothing: every message rides a record
// from its sender NIC's free list that goes back there on delivery.
func TestMessageStreamAllocatesNothing(t *testing.T) {
	r := newRig(t)
	qa, qb := Connect(r.na, r.nb, 1, 1, nic.Intr, nic.Poll)
	got := 0
	qa.Listen(func(nic.Message) bool { got++; return true })
	qb.Listen(func(nic.Message) bool { got++; return true })
	m := &Msg{HeaderBytes: 64, PayloadBytes: 8 << 10, Header: "h"}
	const perRound = 4
	round := func() {
		for range perRound {
			qa.SendAsync(m)
			qb.SendAsync(m)
		}
		r.s.Run()
	}
	for range 4 {
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a round of %d messages allocated %.1f times, want 0", 2*perRound, allocs)
	}
	if want := 25 * 2 * perRound; got != want {
		t.Fatalf("delivered %d messages, want %d", got, want)
	}
}
