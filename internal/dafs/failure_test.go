package dafs

import (
	"errors"
	"testing"

	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/sim"
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
		if ref != nil {
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
