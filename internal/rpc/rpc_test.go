package rpc

import (
	"testing"

	"danas/internal/host"
	"danas/internal/netsim"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/udpip"
	"danas/internal/wire"
)

type rig struct {
	s           *sim.Scheduler
	p           *host.Params
	client      *Client
	clientNIC   *nic.NIC
	clientStack *udpip.Stack
	server      *Server
	clientHost  *host.Host
	serverHost  *host.Host
}

func newRig(t *testing.T, h Handler) *rig {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	p := host.Default()
	fab := netsim.NewFabric(s, p.SwitchLatency)
	cfg := netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}
	ch := host.New(s, "client", p)
	sh := host.New(s, "server", p)
	cn := nic.New(ch, fab.AddPort("client", cfg))
	sn := nic.New(sh, fab.AddPort("server", cfg))
	cs := udpip.NewStack(cn)
	ss := udpip.NewStack(sn)
	srv := NewServer(s, ss, 2049, 4, h)
	cl := NewClient(s, cs, 1001, ss, 2049)
	return &rig{s: s, p: p, client: cl, clientNIC: cn, clientStack: cs, server: srv, clientHost: ch, serverHost: sh}
}

func echoHandler(p *sim.Proc, req *Request) *Reply {
	return &Reply{
		Hdr:          &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusOK},
		PayloadBytes: req.Hdr.Length,
	}
}

func TestCallResponse(t *testing.T) {
	r := newRig(t, echoHandler)
	var resp *Response
	r.s.Go("app", func(p *sim.Proc) {
		resp = r.client.Call(p, &wire.Header{Op: wire.OpRead, Length: 4096}, CallOpts{})
	})
	r.s.Run()
	if resp == nil || resp.Hdr.Status != wire.StatusOK || resp.PayloadBytes != 4096 {
		t.Fatalf("response %+v", resp)
	}
	if resp.Direct {
		t.Fatal("un-preposted call must not be direct")
	}
	if r.client.Outstanding() != 0 {
		t.Fatal("pending call leaked")
	}
	if r.server.Requests != 1 {
		t.Fatalf("server saw %d requests", r.server.Requests)
	}
}

func TestConcurrentCallsMatchByXID(t *testing.T) {
	r := newRig(t, func(p *sim.Proc, req *Request) *Reply {
		// Delay inversely with offset so replies come back out of order.
		p.Sleep(sim.Duration(1000-req.Hdr.Offset) * sim.Microsecond)
		return &Reply{
			Hdr:          &wire.Header{XID: req.Hdr.XID, Offset: req.Hdr.Offset, Status: wire.StatusOK},
			PayloadBytes: 128,
		}
	})
	results := make(map[int64]int64)
	for i := int64(0); i < 4; i++ {
		off := i * 100
		r.s.Go("app", func(p *sim.Proc) {
			resp := r.client.Call(p, &wire.Header{Op: wire.OpRead, Offset: off}, CallOpts{})
			results[off] = resp.Hdr.Offset
		})
	}
	r.s.Run()
	if len(results) != 4 {
		t.Fatalf("completed %d calls", len(results))
	}
	for off, got := range results {
		if got != off {
			t.Fatalf("call for offset %d got reply for %d", off, got)
		}
	}
}

func TestPrePostedReplyIsDirect(t *testing.T) {
	r := newRig(t, echoHandler)
	var resp *Response
	r.s.Go("app", func(p *sim.Proc) {
		resp = r.client.Call(p, &wire.Header{Op: wire.OpRead, Length: 32768}, CallOpts{
			Prepare: func(req *wire.Header) uint64 {
				r.clientNIC.PrePost(req.XID, req.Length)
				return req.XID
			},
		})
	})
	r.s.Run()
	if resp == nil || !resp.Direct {
		t.Fatal("pre-posted reply not directly placed")
	}
	if st := r.clientNIC.StatsSnapshot(); st.DirectPlacements < 4 {
		// 32KB over ~9KB fragments: each data fragment placed directly.
		t.Fatalf("direct placements %d, want one per fragment (>=4)", st.DirectPlacements)
	}
	if r.clientNIC.PrePosted() != 0 {
		t.Fatal("pre-post not consumed after full reply")
	}
}

func TestRequestPayloadCarried(t *testing.T) {
	var gotPayload any
	var gotBytes int64
	r := newRig(t, func(p *sim.Proc, req *Request) *Reply {
		gotPayload, gotBytes = req.Payload, req.PayloadBytes
		return &Reply{Hdr: &wire.Header{XID: req.Hdr.XID, Status: wire.StatusOK}}
	})
	r.s.Go("app", func(p *sim.Proc) {
		r.client.Call(p, &wire.Header{Op: wire.OpWrite, Length: 8192}, CallOpts{
			PayloadBytes: 8192,
			Payload:      "write-data",
			CopyBytes:    8192,
		})
	})
	r.s.Run()
	if gotPayload != "write-data" || gotBytes != 8192 {
		t.Fatalf("server saw payload %v (%d bytes)", gotPayload, gotBytes)
	}
}

func TestServerCPUCharged(t *testing.T) {
	r := newRig(t, echoHandler)
	r.s.Go("app", func(p *sim.Proc) {
		r.client.Call(p, &wire.Header{Op: wire.OpGetattr}, CallOpts{})
	})
	r.s.Run()
	if busy := r.serverHost.CPU.BusyTime(); busy < r.p.RPCServerCost {
		t.Fatalf("server CPU busy %v, below RPC processing cost", busy)
	}
	if busy := r.clientHost.CPU.BusyTime(); busy < r.p.RPCClientSend+r.p.RPCClientRecv {
		t.Fatalf("client CPU busy %v, below RPC client costs", busy)
	}
}

func TestNilReplyDropsCall(t *testing.T) {
	calls := 0
	r := newRig(t, func(p *sim.Proc, req *Request) *Reply {
		calls++
		if calls == 1 {
			return nil // dropped; client-side call stays pending forever
		}
		return echoHandler(p, req)
	})
	done := false
	r.s.Go("app", func(p *sim.Proc) {
		r.client.Call(p, &wire.Header{Op: wire.OpRead}, CallOpts{})
		done = true
	})
	r.s.Run()
	if done {
		t.Fatal("dropped call completed")
	}
	if r.client.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", r.client.Outstanding())
	}
}
