// Package rpc is a SunRPC-style remote procedure call layer over UDP/IP:
// transaction IDs, request/response matching with multiple outstanding
// calls, and reply payload delivery either through the normal copy path or
// by RDDP-RPC direct placement when the caller pre-posted a tagged buffer.
//
// NFS and its two optimized derivatives ride this layer; DAFS has its own
// session protocol over VI (see internal/dafs).
package rpc

import (
	"fmt"

	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/obs"
	"danas/internal/sim"
	"danas/internal/udpip"
	"danas/internal/wire"
)

// callMsg is the datagram body for both requests and replies.
type callMsg struct {
	Hdr          *wire.Header
	PayloadBytes int64
	Payload      any
	// replyTag, on requests, asks the server to stamp this tag on its
	// reply so the client NIC can match a pre-posted buffer.
	replyTag uint64
}

// Request is a received call, handed to the server handler.
type Request struct {
	Hdr          *wire.Header
	PayloadBytes int64
	Payload      any

	from     *udpip.Stack
	fromPort int
	replyTag uint64
}

// ClientNIC returns the calling host's NIC — the RDMA target for
// RDDP-RDMA replies.
func (r *Request) ClientNIC() *nic.NIC { return r.from.NIC() }

// Reply is the handler's response.
type Reply struct {
	Hdr          *wire.Header
	PayloadBytes int64
	Payload      any
	// CopyBytes is server-side copy work (e.g. staging cache data into
	// mbufs) charged before transmission.
	CopyBytes int64
}

// Handler processes one request in a server worker's process context.
type Handler func(p *sim.Proc, req *Request) *Reply

// drcKey identifies a request for the duplicate-request cache.
type drcKey struct {
	from     *udpip.Stack
	fromPort int
	xid      uint64
}

// drcEntry caches a completed reply so retransmitted requests are answered
// without re-executing the handler (at-most-once execution).
type drcEntry struct {
	done  bool
	reply *callMsg
	bytes int64
	tag   uint64
}

// drcLimit bounds the duplicate-request cache, like the classic 2049-entry
// nfsd DRC.
const drcLimit = 2048

// Server serves RPCs with a fixed pool of worker processes, like nfsd.
type Server struct {
	sock    *udpip.Socket
	stack   *udpip.Stack
	handler Handler

	drc      map[drcKey]*drcEntry
	drcOrder sim.Ring[drcKey]

	// down marks the server host crashed: queued and arriving requests
	// are discarded unexecuted (failure injection; see SetDown).
	down bool

	Requests   uint64
	Duplicates uint64
	// Discarded counts requests dropped while the server was down.
	Discarded uint64
}

// SetDown marks the server crashed (true) or recovered (false). While
// down, worker processes discard requests — including ones already
// queued in the socket at crash time — without executing handlers or
// touching the DRC, so in-flight calls die with the host.
func (srv *Server) SetDown(down bool) { srv.down = down }

// ResetDRC clears the duplicate-request cache — a rebooted server has
// lost it, so post-restart retransmissions of pre-crash calls re-execute
// (exactly the classic NFS-over-UDP recovery behaviour).
func (srv *Server) ResetDRC() {
	srv.drc = make(map[drcKey]*drcEntry)
	srv.drcOrder = sim.Ring[drcKey]{}
}

// NewServer binds an RPC server to (stack, port) and starts nWorkers
// worker processes.
func NewServer(s *sim.Scheduler, stack *udpip.Stack, port, nWorkers int, h Handler) *Server {
	srv := &Server{sock: stack.Socket(port), stack: stack, handler: h, drc: make(map[drcKey]*drcEntry)}
	if nWorkers <= 0 {
		nWorkers = 1
	}
	for i := 0; i < nWorkers; i++ {
		s.Go(fmt.Sprintf("rpcd-%s-%d", stack.Host().Name, i), srv.worker)
	}
	return srv
}

func (srv *Server) worker(p *sim.Proc) {
	for {
		d := srv.sock.Recv(p)
		if srv.down {
			srv.Discarded++
			continue // crashed host: the request dies unexecuted
		}
		srv.serve(p, d)
	}
}

// serve executes one received request. The request's span (if traced) is
// active for exactly the scope of this call, so server CPU, cache, disk
// and write-behind work attribute to the originating operation — and the
// worker's idle Recv wait between requests attributes to nothing.
func (srv *Server) serve(p *sim.Proc, d *udpip.Datagram) {
	h := srv.stack.Host()
	msg := d.Body.(*callMsg)
	obs.Activate(p, msg.Hdr.Span)
	defer obs.Activate(p, nil)
	// RPC receive demux + dispatch.
	h.Compute(p, h.P.RPCServerCost)
	key := drcKey{from: d.From, fromPort: d.FromPort, xid: msg.Hdr.XID}
	if e, dup := srv.drc[key]; dup {
		srv.Duplicates++
		if e.done {
			// Answer from the cache without re-executing.
			srv.sock.SendTo(p, d.From, d.FromPort, e.bytes, e.reply, 0, e.tag)
		}
		// In progress: drop; the original execution will reply.
		return
	}
	entry := &drcEntry{}
	srv.installDRC(key, entry)
	srv.Requests++
	reply := srv.handler(p, &Request{
		Hdr:          msg.Hdr,
		PayloadBytes: msg.PayloadBytes,
		Payload:      msg.Payload,
		from:         d.From,
		fromPort:     d.FromPort,
		replyTag:     msg.replyTag,
	})
	if reply == nil {
		return
	}
	bytes := int64(reply.Hdr.WireSize()) + reply.PayloadBytes
	out := &callMsg{
		Hdr:          reply.Hdr,
		PayloadBytes: reply.PayloadBytes,
		Payload:      reply.Payload,
	}
	entry.done = true
	entry.reply = out
	entry.bytes = bytes
	entry.tag = msg.replyTag
	srv.sock.SendTo(p, d.From, d.FromPort, bytes, out, reply.CopyBytes, msg.replyTag)
}

// installDRC records a request in the duplicate-request cache, evicting
// the oldest entries beyond the limit.
func (srv *Server) installDRC(key drcKey, e *drcEntry) {
	srv.drc[key] = e
	srv.drcOrder.Push(key)
	for srv.drcOrder.Len() > drcLimit {
		delete(srv.drc, srv.drcOrder.Pop())
	}
}

// Response is a completed call as seen by the client.
type Response struct {
	Hdr          *wire.Header
	PayloadBytes int64
	Payload      any
	// Direct reports the payload was placed by the NIC into the
	// pre-posted buffer: the client must not copy it anywhere.
	Direct bool
	// Err is non-nil when the call failed locally without a reply
	// (retry exhaustion: nas.ErrTimeout — the server is crashed,
	// partitioned or hopelessly overloaded); Hdr and the payload fields
	// are unset and must not be touched.
	Err error
}

// CallOpts tunes one call.
type CallOpts struct {
	// PayloadBytes/Payload attach request payload (writes).
	PayloadBytes int64
	Payload      any
	// CopyBytes is client-side copy work staging the request payload.
	CopyBytes int64
	// Prepare, if set, runs after the XID is assigned and before the
	// request is transmitted; it returns the reply tag to request (the
	// pre-posting client registers and pre-posts its buffer here).
	Prepare func(xid uint64) uint64
}

// Client issues RPCs to a fixed server endpoint. Any number of calls may
// be outstanding; the socket's receive path matches replies by XID, as a
// kernel's does, from event callbacks rather than a process of its own.
// The embedded call table carries the retransmission settings (classic
// RPC-over-UDP reliability; the server's duplicate-request cache makes
// retried calls at-most-once) and the call counters.
type Client struct {
	stack      *udpip.Stack
	sock       *udpip.Socket
	server     *udpip.Stack
	serverPort int

	nas.CallTable[Response, sent]
}

// sent is a transmitted request, kept for retransmission.
type sent struct {
	msg   *callMsg
	bytes int64
}

// NewClient creates a client on stack calling (server, serverPort), bound
// to the given local port. The scheduler is the stack's.
func NewClient(_ *sim.Scheduler, stack *udpip.Stack, localPort int, server *udpip.Stack, serverPort int) *Client {
	c := &Client{
		stack:      stack,
		sock:       stack.Socket(localPort),
		server:     server,
		serverPort: serverPort,
	}
	c.Init(c.resend)
	c.sock.Listen(c.demux)
	return c
}

// demux resolves the pending call a received reply answers.
func (c *Client) demux(d *udpip.Datagram) {
	msg := d.Body.(*callMsg)
	if fut := c.Answer(msg.Hdr.XID); fut != nil {
		fut.Resolve(&Response{
			Hdr:          msg.Hdr,
			PayloadBytes: msg.PayloadBytes,
			Payload:      msg.Payload,
			Direct:       d.Direct,
		})
	}
}

// resend retransmits a request from the kernel RPC timer, charging the
// send-side cost asynchronously.
func (c *Client) resend(r sent) {
	h := c.stack.Host()
	h.ComputeAsync(h.P.RPCClientSend, nil)
	c.sock.SendToAsync(c.server, c.serverPort, r.bytes, r.msg, 0)
}

// Call sends req and blocks until the matching reply arrives. The header's
// XID is assigned by the client.
func (c *Client) Call(p *sim.Proc, req *wire.Header, opts CallOpts) *Response {
	h := c.stack.Host()
	fut := c.Begin(p, req)
	var tag uint64
	if opts.Prepare != nil {
		tag = opts.Prepare(req.XID)
	}
	h.Compute(p, h.P.RPCClientSend)
	msg := &callMsg{
		Hdr:          req,
		PayloadBytes: opts.PayloadBytes,
		Payload:      opts.Payload,
		replyTag:     tag,
	}
	bytes := int64(req.WireSize()) + opts.PayloadBytes
	c.sock.SendTo(p, c.server, c.serverPort, bytes, msg, opts.CopyBytes, 0)
	resp, err := c.Wait(p, req, fut, sent{msg: msg, bytes: bytes})
	h.Compute(p, h.P.RPCClientRecv)
	if err != nil {
		return &Response{Err: err}
	}
	return resp
}
