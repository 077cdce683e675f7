package rpc

import (
	"reflect"
	"testing"

	"danas/internal/nas"
	"danas/internal/sim"
	"danas/internal/udpip"
	"danas/internal/wire"
)

// nullService answers every request with an OK status, from a reply
// header of its own that the worker copies.
type nullService struct{ hdr wire.Header }

func (s *nullService) Serve(w *Worker) bool {
	s.hdr = wire.Header{Op: w.Req.Hdr.Op, XID: w.Req.Hdr.XID, Status: wire.StatusOK}
	w.Reply = Reply{Hdr: &s.hdr}
	return true
}

// TestNullRoundTripAllocations pins the allocations of one null RPC,
// client and server together: a caller process makes one call per
// token it takes from a queue, so a round allocates only what the call
// does. Every record on the path (call, message, datagram, fragment,
// NIC message, DRC entry) is recycled, so once the free lists and
// rings have grown a round allocates nothing.
func TestNullRoundTripAllocations(t *testing.T) {
	r := newRig(t, echoHandler)
	srv := NewServiceServer(r.server.stack, 2050, 1, func(*Worker) Service { return &nullService{} })
	c := NewClient(r.s, r.clientStack, 1002, r.server.stack, 2050)
	tokens := sim.NewQueue[int](r.s, "tokens")
	r.s.Go("caller", func(p *sim.Proc) {
		for {
			tokens.Get(p)
			if resp := c.Call(p, &wire.Header{Op: wire.OpGetattr}, CallOpts{}); resp.Err != nil || resp.Hdr.Status != wire.StatusOK {
				t.Errorf("null call: %+v", resp)
			}
		}
	})
	round := func() { tokens.Put(0); r.s.Run() }
	for range 8 {
		round()
	}
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Errorf("a null round trip allocates %.1f times, want 0", got)
	}
	if srv.Requests != 8+1+50 { // AllocsPerRun warms up with one run
		t.Errorf("server executed %d requests, want 59", srv.Requests)
	}
}

// seenReply is what a raw socket in the client's place saw of one reply.
type seenReply struct {
	hdr    wire.Header
	bytes  int64 // the datagram's length
	direct bool  // placed in a buffer pre-posted under its tag
}

// TestDRCReplyOutlivesLaterCalls sends one request with a reply tag,
// then many later requests whose replies fill other DRC entries, and
// then a duplicate of the first. The cache must answer the duplicate
// with the first request's own reply bytes and tag, although the
// records that carried the first reply were reused many times since.
func TestDRCReplyOutlivesLaterCalls(t *testing.T) {
	executions := 0
	r := newRig(t, func(p *sim.Proc, req *Request) *Reply {
		executions++
		return &Reply{
			Hdr:          &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusOK, Length: req.Hdr.Length},
			PayloadBytes: req.Hdr.Length,
		}
	})
	raw := r.clientStack.Socket(3000)
	var seen []seenReply
	raw.Listen(func(d *udpip.Datagram) bool {
		m := d.Body.(*callMsg)
		seen = append(seen, seenReply{hdr: m.Hdr, bytes: d.Bytes, direct: d.Direct})
		msgPools.Of(r.s).Release(m)
		return true
	})
	pool := msgPools.Of(r.s)
	send := func(xid uint64, length int64, tag uint64) {
		hdr := wire.Header{Op: wire.OpRead, XID: xid, Length: length}
		raw.SendToAsync(r.server.stack, 2049, int64(hdr.WireSize()), pool.Copy(&callMsg{Hdr: hdr, replyTag: tag}), 0)
	}
	const later = 300
	const tag = 77
	r.s.Go("driver", func(p *sim.Proc) {
		send(1, 5000, tag)
		p.Sleep(sim.Millisecond)
		for i := range later {
			send(uint64(2+i), int64(100+i), 0)
			p.Sleep(50 * sim.Microsecond)
		}
		p.Sleep(10 * sim.Millisecond)
		r.clientNIC.PrePost(tag, 5000)
		send(1, 5000, 0) // a duplicate carries no tag of its own
	})
	r.s.Run()
	if executions != later+1 || r.server.Duplicates != 1 {
		t.Fatalf("%d executions and %d duplicates, want %d and 1", executions, r.server.Duplicates, later+1)
	}
	if len(seen) != later+2 {
		t.Fatalf("saw %d replies, want %d", len(seen), later+2)
	}
	first, dup := seen[0], seen[len(seen)-1]
	if dup.hdr.XID != 1 || !reflect.DeepEqual(dup.hdr, first.hdr) || dup.bytes != first.bytes {
		t.Fatalf("duplicate answered with %+v (%d bytes), want the original %+v (%d bytes)", dup.hdr, dup.bytes, first.hdr, first.bytes)
	}
	if first.direct || !dup.direct || r.clientNIC.PrePosted() != 0 {
		t.Fatalf("the cached reply did not carry the original tag: direct %v then %v, %d buffers left",
			first.direct, dup.direct, r.clientNIC.PrePosted())
	}
}

// TestLateReplyLeavesReusedRecordAlone times a call out while its
// handler is still running, then makes a second call, which reuses the
// first call's record. The first call's reply, arriving while the
// second is outstanding, must be dropped: the second call completes
// only with its own reply.
func TestLateReplyLeavesReusedRecordAlone(t *testing.T) {
	r := newRig(t, func(p *sim.Proc, req *Request) *Reply {
		p.Sleep(sim.Duration(req.Hdr.Offset) * sim.Millisecond)
		return &Reply{Hdr: &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusOK, Length: req.Hdr.Offset}}
	})
	r.client.RetransmitTimeout = sim.Millisecond
	r.client.MaxRetries = 1
	var second wire.Header
	var firstErr error
	var secondAt sim.Time
	r.s.Go("app", func(p *sim.Proc) {
		// Served in 20 ms: times out after 1 + 2 ms.
		resp := r.client.Call(p, &wire.Header{Op: wire.OpRead, Offset: 20}, CallOpts{})
		firstErr = resp.Err
		// Served in 50 ms, with no timeout: outstanding when the first
		// reply lands.
		r.client.RetransmitTimeout = 0
		resp = r.client.Call(p, &wire.Header{Op: wire.OpRead, Offset: 50}, CallOpts{})
		if resp.Err != nil {
			t.Errorf("second call: %v", resp.Err)
			return
		}
		second, secondAt = *resp.Hdr, p.Now()
	})
	r.s.Run()
	if firstErr != nas.ErrTimeout {
		t.Fatalf("first call: %v, want nas.ErrTimeout", firstErr)
	}
	if second.XID != 2 || second.Length != 50 || secondAt < sim.Time(50*sim.Millisecond) {
		t.Fatalf("second call resolved at %v with %+v, want its own reply (XID 2, length 50)", secondAt, second)
	}
	if r.client.Outstanding() != 0 || r.client.TimedOut != 1 {
		t.Fatalf("outstanding %d, timed out %d", r.client.Outstanding(), r.client.TimedOut)
	}
}
