package dafs

import (
	"errors"
	"testing"

	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/wire"
)

// TestForeignExportSlotPiggybacksNothing is the checked-assertion
// regression: a cache block whose Export slot holds something other
// than a live *nic.Segment (a crash-invalidated or foreign value) must
// make the read succeed with no piggybacked reference — not panic.
func TestForeignExportSlotPiggybacksNothing(t *testing.T) {
	r := newRig(t, true, 1<<16)
	f, _ := r.fs.Create("data", 1<<20)
	r.sc.Warm(f)
	// Corrupt the export slot of the block covering offset 0.
	b, ok := r.sc.Peek(f, 0)
	if !ok {
		t.Fatal("warmed block not resident")
	}
	b.Export = "not-a-segment"
	c := r.newClient(t, nic.Poll, Direct)
	r.s.Go("app", func(p *sim.Proc) {
		h, err := c.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		n, ref, err := c.ReadDirect(p, h, 0, 16*1024, 1)
		if err != nil || n != 16*1024 {
			t.Errorf("read: n=%d err=%v", n, err)
		}
		if ref.VA != 0 {
			t.Error("foreign export slot still piggybacked a reference")
		}
	})
	r.s.Run()
}

// TestSessionTimeoutAgainstDownServer checks a crashed DAFS server
// surfaces as nas.ErrTimeout after bounded retries — never a hang, never
// a panic.
func TestSessionTimeoutAgainstDownServer(t *testing.T) {
	r := newRig(t, false, 1<<16)
	f, _ := r.fs.Create("data", 1<<20)
	r.sc.Warm(f)
	c := r.newClient(t, nic.Poll, Direct)
	c.SetRetry(sim.Millisecond, 3)
	var openErr, readErr error
	r.s.Go("app", func(p *sim.Proc) {
		h, err := c.Open(p, "data")
		if err != nil {
			t.Errorf("open before crash: %v", err)
			return
		}
		r.srv.SetDown(true)
		_, readErr = c.Read(p, h, 0, 16*1024, 1)
		_, openErr = c.Open(p, "other")
	})
	r.s.Run()
	if !errors.Is(readErr, nas.ErrTimeout) {
		t.Fatalf("read against down server: err = %v, want nas.ErrTimeout", readErr)
	}
	if !errors.Is(openErr, nas.ErrTimeout) {
		t.Fatalf("open against down server: err = %v, want nas.ErrTimeout", openErr)
	}
	if c.TimedOut != 2 {
		t.Fatalf("TimedOut = %d, want 2", c.TimedOut)
	}
	if c.Retransmits != 6 {
		t.Fatalf("Retransmits = %d, want 3 per call", c.Retransmits)
	}
	if c.Outstanding() != 0 {
		t.Fatalf("timed-out calls leaked: %d pending", c.Outstanding())
	}
	if r.srv.Discarded == 0 {
		t.Fatal("down server never discarded a request")
	}
}

// TestSessionRetryRecoversAcrossRestart checks a call issued while the
// server is down completes transparently once it restarts, through the
// client's own retransmission.
func TestSessionRetryRecoversAcrossRestart(t *testing.T) {
	r := newRig(t, false, 1<<16)
	f, _ := r.fs.Create("data", 1<<20)
	r.sc.Warm(f)
	c := r.newClient(t, nic.Poll, Direct)
	c.SetRetry(sim.Millisecond, 10)
	var got int64
	var readErr error
	r.s.Go("app", func(p *sim.Proc) {
		h, err := c.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		r.srv.SetDown(true)
		r.s.After(5*sim.Millisecond, func() { r.srv.SetDown(false) })
		got, readErr = c.Read(p, h, 0, 16*1024, 1)
	})
	r.s.Run()
	if readErr != nil || got != 16*1024 {
		t.Fatalf("read across restart: n=%d err=%v", got, readErr)
	}
	if c.Retransmits == 0 {
		t.Fatal("recovery happened without any retransmission")
	}
	if c.TimedOut != 0 {
		t.Fatalf("TimedOut = %d, want 0", c.TimedOut)
	}
}

// TestSharedRecordsUnderRetransmission runs two sessions on one
// scheduler, whose call records come from one pool and whose XIDs each
// count from 1. A's third call is answered while its retransmission
// timer is still armed; B's third call, XID 3 as well, then takes the
// record A's call ended with, for a read, into a buffer already
// registered, that takes several milliseconds. When A's timer fires it must find A's call answered, by
// A's own table, and neither resend B's request nor fail B's call; and
// a late duplicate of A's reply, reaching A's session while B's call is
// out, must not resolve B's call.
func TestSharedRecordsUnderRetransmission(t *testing.T) {
	const size = 2 << 20
	r := newRig(t, false, 1<<16)
	f, _ := r.fs.Create("data", 4<<20)
	r.sc.Warm(f)
	a := r.newClient(t, nic.Poll, Direct)
	b := r.newClient(t, nic.Poll, Direct)
	pool := callPools.Of(r.s)

	var reused bool
	var bt Task
	var bTook sim.Duration
	r.s.Go("app", func(p *sim.Proc) {
		hb, err := b.Open(p, "data") // B's XID 1
		if err != nil {
			t.Errorf("B's open: %v", err)
			return
		}
		if _, _, err := b.ReadDirect(p, hb, 0, size, 1); err != nil { // B's XID 2
			t.Errorf("B's first read: %v", err)
			return
		}
		ha, err := a.Open(p, "data") // A's XID 1
		if err == nil {
			_, err = a.Getattr(p, ha) // A's XID 2
		}
		if err != nil {
			t.Errorf("A's open or getattr: %v", err)
			return
		}
		a.SetRetry(sim.Millisecond, 1)
		if _, err := a.Getattr(p, ha); err != nil { // A's XID 3
			t.Errorf("A's getattr: %v", err)
			return
		}
		// The record the pool hands out next is the one A's call ended
		// with: B's read must take it.
		rec := pool.Get()
		pool.Put(rec)
		r.s.After(sim.Millisecond/2, func() { reused = bt.call == rec })
		// A late duplicate of A's getattr reply, while B's read is out.
		r.s.After(3*sim.Millisecond, func() {
			dup := msg{Hdr: wire.Header{Op: wire.OpGetattr, XID: 3, Status: wire.StatusOK, Length: 1}}
			a.complete(nic.Message{Header: msgPools.Of(r.s).Copy(&dup)})
		})
		j := host.Carried(b.h, p)
		start := p.Now()
		b.ReadThen(&j, &bt, hb, 0, size, 1, Direct) // B's XID 3
		bTook = p.Now().Sub(start)
	})
	r.s.Run()

	if !reused {
		t.Fatal("B's read did not take the record A's call ended with")
	}
	if bt.Err != nil || bt.N != size || bt.hdr.XID != 3 || bTook < 5*sim.Millisecond {
		t.Fatalf("B's read (XID %d) took %v for %d bytes (err %v), want its own %d bytes in over 5 ms", bt.hdr.XID, bTook, bt.N, bt.Err, size)
	}
	if a.Retransmits != 0 || a.TimedOut != 0 || b.Retransmits != 0 || b.TimedOut != 0 {
		t.Fatalf("A retransmitted %d and timed out %d, B %d and %d; want none", a.Retransmits, a.TimedOut, b.Retransmits, b.TimedOut)
	}
	if r.srv.Reads != 2 {
		t.Fatalf("server served %d reads, want B's two", r.srv.Reads)
	}
	if a.Outstanding() != 0 || b.Outstanding() != 0 {
		t.Fatalf("outstanding: A %d, B %d", a.Outstanding(), b.Outstanding())
	}
}
