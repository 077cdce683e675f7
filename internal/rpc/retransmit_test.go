package rpc

import (
	"testing"

	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/sim"
	"danas/internal/wire"
)

func TestRetransmitRecoversFromLoss(t *testing.T) {
	executions := 0
	r := newRig(t, func(p *sim.Proc, req *Request) *Reply {
		executions++
		return echoHandler(p, req)
	})
	// Drop 30% of packets arriving at the server.
	r.server.stack.SetLoss(0.3, 42)
	r.client.RetransmitTimeout = 2 * sim.Millisecond
	r.client.MaxRetries = 10

	const calls = 50
	completed := 0
	for i := 0; i < calls; i++ {
		off := int64(i)
		r.s.Go("app", func(p *sim.Proc) {
			resp := r.client.Call(p, &wire.Header{Op: wire.OpRead, Offset: off, Length: 512}, CallOpts{})
			if resp.Hdr.Status == wire.StatusOK {
				completed++
			}
		})
	}
	r.s.Run()
	if completed != calls {
		t.Fatalf("completed %d of %d calls under 30%% loss", completed, calls)
	}
	if r.client.Retransmits == 0 {
		t.Fatal("no retransmissions happened under loss")
	}
}

func TestRetransmitLossyReplies(t *testing.T) {
	// Loss on the CLIENT side: requests execute, replies vanish; the
	// duplicate-request cache must answer retries without re-execution.
	executions := 0
	r := newRig(t, func(p *sim.Proc, req *Request) *Reply {
		executions++
		return echoHandler(p, req)
	})
	clientStack := r.clientStack
	clientStack.SetLoss(0.4, 7)
	r.client.RetransmitTimeout = 2 * sim.Millisecond
	r.client.MaxRetries = 20

	const calls = 30
	completed := 0
	for i := 0; i < calls; i++ {
		r.s.Go("app", func(p *sim.Proc) {
			r.client.Call(p, &wire.Header{Op: wire.OpGetattr}, CallOpts{})
			completed++
		})
	}
	r.s.Run()
	if completed != calls {
		t.Fatalf("completed %d of %d", completed, calls)
	}
	if executions != calls {
		t.Fatalf("handler executed %d times for %d calls: at-most-once broken", executions, calls)
	}
	if r.server.Duplicates == 0 {
		t.Fatal("DRC never answered a duplicate")
	}
}

func TestNoLossNoRetransmit(t *testing.T) {
	r := newRig(t, echoHandler)
	r.client.RetransmitTimeout = sim.Millisecond
	r.s.Go("app", func(p *sim.Proc) {
		r.client.Call(p, &wire.Header{Op: wire.OpRead, Length: 1024}, CallOpts{})
	})
	r.s.Run()
	if r.client.Retransmits != 0 {
		t.Fatalf("spurious retransmits: %d", r.client.Retransmits)
	}
	if r.server.Duplicates != 0 {
		t.Fatalf("spurious duplicates: %d", r.server.Duplicates)
	}
}

func TestGiveUpAfterMaxRetriesResolvesTimeout(t *testing.T) {
	r := newRig(t, echoHandler)
	r.server.stack.SetLoss(1.0, 1) // everything lost
	r.client.RetransmitTimeout = sim.Millisecond
	r.client.MaxRetries = 3
	var resp *Response
	r.s.Go("app", func(p *sim.Proc) {
		resp = r.client.Call(p, &wire.Header{Op: wire.OpRead}, CallOpts{})
	})
	r.s.Run()
	if resp == nil {
		t.Fatal("call never resolved: a dead server hung the caller")
	}
	if resp.Err != nas.ErrTimeout {
		t.Fatalf("resp.Err = %v, want nas.ErrTimeout", resp.Err)
	}
	if r.client.Retransmits != 3 {
		t.Fatalf("retransmits = %d, want MaxRetries", r.client.Retransmits)
	}
	if r.client.TimedOut != 1 {
		t.Fatalf("TimedOut = %d, want 1", r.client.TimedOut)
	}
	if r.client.Outstanding() != 0 {
		t.Fatalf("timed-out call still pending: Outstanding() = %d", r.client.Outstanding())
	}
}

// TestCrashedServerTimesOutThenRecovers drives the full crash story at
// the RPC layer: calls against a down server resolve with nas.ErrTimeout
// instead of hanging, and calls issued after a restart succeed again
// even though the DRC was lost.
func TestCrashedServerTimesOutThenRecovers(t *testing.T) {
	r := newRig(t, echoHandler)
	r.client.RetransmitTimeout = sim.Millisecond
	r.client.MaxRetries = 2
	var during, after *Response
	r.server.SetDown(true)
	r.server.stack.SetDown(true)
	r.s.Go("app", func(p *sim.Proc) {
		during = r.client.Call(p, &wire.Header{Op: wire.OpRead}, CallOpts{})
	})
	r.s.After(100*sim.Millisecond, func() {
		r.server.stack.SetDown(false)
		r.server.SetDown(false)
		r.server.ResetDRC()
	})
	r.s.Go("app2", func(p *sim.Proc) {
		p.Sleep(200 * sim.Millisecond)
		after = r.client.Call(p, &wire.Header{Op: wire.OpRead, Length: 64}, CallOpts{})
	})
	r.s.Run()
	if during == nil || during.Err != nas.ErrTimeout {
		t.Fatalf("call during crash: got %+v, want nas.ErrTimeout", during)
	}
	if after == nil || after.Err != nil || after.Hdr.Status != wire.StatusOK {
		t.Fatalf("call after restart failed: %+v", after)
	}
}

// TestSharedRecordsUnderRetransmission runs two clients on one
// scheduler, whose call records come from one pool and whose XIDs both
// count from 1. A's first call is answered while its retransmission
// timer is still armed; B's first call, XID 1 as well, then takes the
// record A's call ended with. When A's timer fires it must find A's call
// answered, by A's own table, and neither resend B's request nor fail
// B's call; and a late duplicate of A's reply, reaching A's socket while
// B's call is out, must not resolve B's call.
func TestSharedRecordsUnderRetransmission(t *testing.T) {
	// The handler serves a request in Offset milliseconds.
	r := newRig(t, func(p *sim.Proc, req *Request) *Reply {
		p.Sleep(sim.Duration(req.Hdr.Offset) * sim.Millisecond)
		return &Reply{Hdr: &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusOK, Length: 100 + req.Hdr.Offset}}
	})
	a := r.client
	a.RetransmitTimeout, a.MaxRetries = 2*sim.Millisecond, 1
	b := NewClient(r.s, r.clientStack, 1003, r.server.stack, 2049)
	pool := callPools.Of(r.s)

	var aResp, bResp Response
	var bHdr wire.Header
	var reused bool
	var bDone sim.Time
	r.s.Go("app", func(p *sim.Proc) {
		resp := a.Call(p, &wire.Header{Op: wire.OpRead}, CallOpts{})
		aResp = *resp
		// The record the pool hands out next is the one A's call ended
		// with: B's call must take it.
		rec := pool.Get()
		pool.Put(rec)
		j := host.Carried(r.clientHost, p)
		var m Caller
		r.s.After(sim.Millisecond, func() { reused = m.call == rec })
		b.CallThen(&j, &m, &wire.Header{Op: wire.OpRead, Offset: 10}, CallOpts{})
		bResp, bDone = *m.Resp, p.Now()
		if m.Resp.Hdr != nil {
			bHdr = *m.Resp.Hdr
		}
	})
	// A late duplicate of A's reply (XID 1), sent to A's port while B's
	// call, XID 1 too, is out.
	raw := r.server.stack.Socket(4000)
	r.s.After(3*sim.Millisecond, func() {
		dup := wire.Header{Op: wire.OpRead, XID: 1, Status: wire.StatusOK, Length: 100}
		raw.SendToAsync(r.clientStack, 1001, int64(dup.WireSize()), msgPools.Of(r.s).Copy(&callMsg{Hdr: dup}), 0)
	})
	r.s.Run()

	if aResp.Err != nil || aResp.Hdr == nil {
		t.Fatalf("A's call: %+v", aResp)
	}
	if !reused {
		t.Fatal("B's call did not take the record A's call ended with")
	}
	if bResp.Err != nil || bHdr.XID != 1 || bHdr.Length != 110 || bDone < sim.Time(10*sim.Millisecond) {
		t.Fatalf("B's call ended at %v with %+v (err %v), want its own reply (XID 1, length 110) after 10 ms", bDone, bHdr, bResp.Err)
	}
	if a.Retransmits != 0 || a.TimedOut != 0 || b.Retransmits != 0 || b.TimedOut != 0 {
		t.Fatalf("A retransmitted %d and timed out %d, B %d and %d; want none", a.Retransmits, a.TimedOut, b.Retransmits, b.TimedOut)
	}
	if r.server.Requests != 2 || r.server.Duplicates != 0 {
		t.Fatalf("server executed %d requests and saw %d duplicates, want 2 and 0", r.server.Requests, r.server.Duplicates)
	}
	if a.Outstanding() != 0 || b.Outstanding() != 0 {
		t.Fatalf("outstanding: A %d, B %d", a.Outstanding(), b.Outstanding())
	}
}
