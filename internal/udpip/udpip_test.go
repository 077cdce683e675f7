package udpip

import (
	"fmt"
	"strings"
	"testing"

	"danas/internal/host"
	"danas/internal/netsim"
	"danas/internal/nic"
	"danas/internal/sim"
)

type rig struct {
	s      *sim.Scheduler
	p      *host.Params
	ha, hb *host.Host
	sa, sb *Stack
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	p := host.Default()
	fab := netsim.NewFabric(s, p.SwitchLatency)
	cfg := netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}
	ha := host.New(s, "a", p)
	hb := host.New(s, "b", p)
	na := nic.New(ha, fab.AddPort("a", cfg))
	nb := nic.New(hb, fab.AddPort("b", cfg))
	return &rig{s: s, p: p, ha: ha, hb: hb, sa: NewStack(na), sb: NewStack(nb)}
}

func TestDatagramDelivery(t *testing.T) {
	r := newRig(t)
	a := r.sa.Socket(1000)
	b := r.sb.Socket(2000)
	var got *Datagram
	r.s.Go("recv", func(p *sim.Proc) { got = b.Recv(p) })
	r.s.Go("send", func(p *sim.Proc) {
		a.SendTo(p, r.sb, 2000, 100, "ping", 100, 0)
	})
	r.s.Run()
	if got == nil || got.Body != "ping" || got.Bytes != 100 {
		t.Fatalf("datagram %+v", got)
	}
	if got.From != r.sa || got.FromPort != 1000 {
		t.Fatal("source not stamped")
	}
}

func TestLargeDatagramFragments(t *testing.T) {
	r := newRig(t)
	a := r.sa.Socket(1)
	b := r.sb.Socket(2)
	var got *Datagram
	r.s.Go("recv", func(p *sim.Proc) { got = b.Recv(p) })
	r.s.Go("send", func(p *sim.Proc) {
		a.SendTo(p, r.sb, 2, 64*1024, "big", 64*1024, 0)
	})
	r.s.Run()
	if got == nil || got.Bytes != 64*1024 {
		t.Fatal("large datagram lost")
	}
	// 64KB over (9216-46)-byte fragments = 8 packets.
	if r.sa.PacketsOut != 8 || r.sb.PacketsIn != 8 {
		t.Fatalf("packets out=%d in=%d, want 8/8", r.sa.PacketsOut, r.sb.PacketsIn)
	}
}

func TestUnboundPortDrops(t *testing.T) {
	r := newRig(t)
	a := r.sa.Socket(1)
	r.s.Go("send", func(p *sim.Proc) {
		a.SendTo(p, r.sb, 404, 100, "lost", 100, 0)
	})
	r.s.Run() // must terminate without a listener
	if r.sb.PacketsIn != 1 {
		t.Fatalf("packet not processed: %d", r.sb.PacketsIn)
	}
}

func TestDuplicatePortPanics(t *testing.T) {
	r := newRig(t)
	r.sa.Socket(5)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate bind did not panic")
		}
	}()
	r.sa.Socket(5)
}

func TestInterleavedDatagramsReassembleIndependently(t *testing.T) {
	r := newRig(t)
	a := r.sa.Socket(1)
	b := r.sb.Socket(2)
	var got []string
	r.s.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, b.Recv(p).Body.(string))
		}
	})
	r.s.Go("send", func(p *sim.Proc) {
		a.SendTo(p, r.sb, 2, 32*1024, "first", 0, 0)
		a.SendTo(p, r.sb, 2, 32*1024, "second", 0, 0)
	})
	r.s.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("got %v", got)
	}
}

// The paper's Table 2: UDP/Ethernet one-byte RTT ~80us on this stack.
// The precise assertion lives in the exper package; here we bound it.
func TestRoundTripLatencyOrder(t *testing.T) {
	r := newRig(t)
	a := r.sa.Socket(1)
	b := r.sb.Socket(2)
	var rtt sim.Duration
	r.s.Go("echo", func(p *sim.Proc) {
		d := b.Recv(p)
		b.SendTo(p, d.From, d.FromPort, 1, "pong", 1, 0)
	})
	r.s.Go("ping", func(p *sim.Proc) {
		start := p.Now()
		a.SendTo(p, r.sb, 2, 1, "ping", 1, 0)
		a.Recv(p)
		rtt = p.Now().Sub(start)
	})
	r.s.Run()
	if rtt < 40*sim.Microsecond || rtt > 160*sim.Microsecond {
		t.Fatalf("UDP RTT %v wildly off the ~80us ballpark", rtt)
	}
}

// TestDatagramStreamAllocatesOnlyDatagrams sends three-fragment datagrams
// to a Listen loop until the pools, rings and reassembly map have grown.
// A further round then allocates nothing: each datagram, each fragment,
// and each NIC message record carrying one, goes back to its sender's
// free list when the receiver has processed it, or dropped it at a
// crashed or lossy host.
func TestDatagramStreamAllocatesOnlyDatagrams(t *testing.T) {
	r := newRig(t)
	a := r.sa.Socket(1000)
	b := r.sb.Socket(2000)
	got := 0
	b.Listen(func(*Datagram) bool { got++; return true })
	bytes := int64(2*(r.p.EtherMTU-ipHeaderBytes) + 100)
	const perRound = 4
	round := func() {
		for range perRound {
			a.SendToAsync(r.sb, 2000, bytes, "d", 0)
		}
		r.s.Run()
	}
	for _, tc := range []struct {
		name      string
		set       func()
		delivered int
	}{
		{"delivered", func() {}, perRound},
		{"receiver down", func() { r.sb.SetDown(true) }, 0},
		{"receiver loses every packet", func() { r.sb.SetDown(false); r.sb.SetLoss(1, 7) }, 0},
	} {
		tc.set()
		for range 4 {
			round()
		}
		got = 0
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Fatalf("%s: a round of %d datagrams allocated %.1f times, want 0",
				tc.name, perRound, allocs)
		}
		if want := 21 * tc.delivered; got != want {
			t.Fatalf("%s: delivered %d datagrams, want %d", tc.name, got, want)
		}
	}
}

// serveLoop is a Listen handler that serves each datagram as a server
// worker would, by callbacks that finish later: it charges each of costs
// to the host CPU through a host.Job, noting each finish, and then
// resumes its receive loop.
type serveLoop struct {
	id      int
	costs   []sim.Duration
	got     func(id int, d *Datagram)
	note    func(string)
	j       host.Job
	l       *Listener
	i       int
	charged bool
}

func newServeLoop(h *host.Host, sk *Socket, id int, costs []sim.Duration, got func(int, *Datagram), note func(string)) {
	sl := &serveLoop{id: id, costs: costs, got: got, note: note, j: host.Job{H: h}}
	sl.j.Step = func() {
		if sl.step() {
			sl.l.Resume()
		}
	}
	sl.l = sk.Listen(sl.accept)
}

func (sl *serveLoop) accept(d *Datagram) bool {
	sl.got(sl.id, d)
	sl.i = 0
	return sl.step()
}

func (sl *serveLoop) step() bool {
	sl.j.Resume()
	for {
		if sl.charged {
			sl.charged = false
			sl.note(fmt.Sprintf("loop%d charged %d", sl.id, sl.i))
		}
		if sl.i == len(sl.costs) {
			return true
		}
		sl.i++
		sl.charged = true
		if !sl.j.Compute(sl.costs[sl.i-1]) {
			return false
		}
	}
}

// TestListenServesLikeRecvLoop runs twin rigs whose receiving socket is
// served by loops that, per datagram, charge CPU work: processes calling
// Recv, serving with Compute, and calling Recv again, or Listen loops
// whose handler serves by callbacks and finishes later (Resume). Bursts
// arrive while every loop is busy. Both must log each delivery and each
// charge's finish at the same instant and after the same number of
// executed events, and one loop or several (the rpcd pool) must take
// datagrams in arrival order.
func TestListenServesLikeRecvLoop(t *testing.T) {
	costs := []sim.Duration{30 * sim.Microsecond, 0, 12 * sim.Microsecond}
	sends := []sim.Time{0, 0, 0, 5000, 40000, 400000, 400000, 400000, 400000}
	for _, loops := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d loops", loops), func(t *testing.T) {
			run := func(listen bool) (string, []any) {
				r := newRig(t)
				a := r.sa.Socket(1000)
				b := r.sb.Socket(2000)
				var log []string
				var served []any
				note := func(what string) {
					log = append(log, fmt.Sprintf("%s@%d/%d", what, r.s.Now(), r.s.Events()))
				}
				got := func(id int, d *Datagram) {
					served = append(served, d.Body)
					note(fmt.Sprintf("loop%d got %v", id, d.Body))
				}
				for k := range loops {
					if listen {
						newServeLoop(r.hb, b, k, costs, got, note)
						continue
					}
					r.s.Go("recv", func(p *sim.Proc) {
						for {
							got(k, b.Recv(p))
							for i, c := range costs {
								r.hb.Compute(p, c)
								note(fmt.Sprintf("loop%d charged %d", k, i+1))
							}
						}
					})
				}
				for i, at := range sends {
					r.s.At(at, func() { a.SendToAsync(r.sb, 2000, 100, i, 0) })
				}
				r.s.Run()
				return strings.Join(log, " "), served
			}
			want, _ := run(false)
			got, served := run(true)
			if got != want {
				t.Fatalf("Listen log\n got %s\nwant %s (Recv processes)", got, want)
			}
			if len(served) != len(sends) {
				t.Fatalf("served %v, want all %d datagrams", served, len(sends))
			}
			for i, body := range served {
				if body != i {
					t.Fatalf("served %v, not in arrival order", served)
				}
			}
		})
	}
}

// TestDatagramRecordsReturnOnce follows datagram records through each way
// a datagram ends at a live receiver: delivered to a Listen callback,
// which must see the sender's contents; partly reassembled, with some of
// its fragments lost; lost whole; and dropped at a down host. Every
// record must go back to the sender's free list exactly once, and only
// after the receiver is done with it.
func TestDatagramRecordsReturnOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		set     func(r *rig)
		deliver bool // every datagram reaches the listener
	}{
		{"delivered", func(*rig) {}, true},
		{"partly reassembled or lost", func(r *rig) { r.sb.SetLoss(0.4, 11) }, false},
		{"dropped at a down host", func(r *rig) { r.sb.SetDown(true) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			a := r.sa.Socket(1000)
			b := r.sb.Socket(2000)
			tc.set(r)
			const sent = 24
			delivered := 0
			b.Listen(func(d *Datagram) bool {
				// The record must still hold what the sender put in it.
				i, ok := d.Body.(int)
				if !ok || d.Bytes != int64(1000+i*1500) || d.From != r.sa || d.FromPort != 1000 {
					t.Errorf("listener got %+v", *d)
				}
				delivered++
				return true
			})
			// Every datagram is in flight at once, so each needs a record
			// of its own: 1 to 5 fragments each.
			for i := range sent {
				a.SendToAsync(r.sb, 2000, int64(1000+i*1500), i, 0)
			}
			r.s.Run()
			if tc.deliver && delivered != sent {
				t.Fatalf("delivered %d of %d datagrams", delivered, sent)
			}
			if !tc.deliver && delivered == sent {
				t.Fatalf("every datagram was delivered: the case drops nothing")
			}
			seen := make(map[*Datagram]bool)
			for _, d := range r.sa.dgrams {
				if seen[d] {
					t.Fatalf("a datagram record is on the free list twice")
				}
				seen[d] = true
			}
			if n := len(r.sa.dgrams); n != sent {
				t.Fatalf("%d records back on the free list, want one per datagram (%d)", n, sent)
			}
		})
	}
}
