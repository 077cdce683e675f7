// Package rpc is a SunRPC-style remote procedure call layer over UDP/IP:
// transaction IDs, request/response matching with multiple outstanding
// calls, and reply payload delivery either through the normal copy path or
// by RDDP-RPC direct placement when the caller pre-posted a tagged buffer.
//
// NFS and its two optimized derivatives ride this layer; DAFS has its own
// session protocol over VI (see internal/dafs).
package rpc

import (
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/nic"
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

// Service serves one worker's requests by callbacks (see host.Job).
// Serve is called with a new request in w.Req, and again each time a
// wait it arranged through w.Job ends, until it reports true with the
// response in w.Reply (a nil Hdr sends none). The service keeps its own
// place in the request between calls.
type Service interface {
	Serve(w *Worker) bool
}

// Handler is a process-style request handler: it may block, and returns
// the response, or nil to send none. A server built with NewServer runs
// it for each request on a process started in place (host.Job.Block).
type Handler func(p *sim.Proc, req *Request) *Reply

// handlerService runs a Handler as one worker's Service.
type handlerService struct {
	h      Handler
	w      *Worker
	run    func(p *sim.Proc) // hs.handle, bound once
	called bool              // the handler has run; its reply is in w.Reply
}

func (hs *handlerService) Serve(w *Worker) bool {
	if hs.called {
		hs.called = false
		return true
	}
	hs.called = true
	w.Job.Block("rpcd", hs.run)
	return false
}

// handle runs the handler on the request at hand.
func (hs *handlerService) handle(p *sim.Proc) {
	if r := hs.h(p, &hs.w.Req); r != nil {
		hs.w.Reply = *r
	}
}

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

// Server serves RPCs with a fixed pool of workers, like nfsd.
type Server struct {
	sock  *udpip.Socket
	stack *udpip.Stack

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
// down, workers discard requests — including ones already queued in
// the socket at crash time — without executing handlers or touching the
// DRC, so in-flight calls die with the host.
func (srv *Server) SetDown(down bool) { srv.down = down }

// ResetDRC clears the duplicate-request cache — a rebooted server has
// lost it, so post-restart retransmissions of pre-crash calls re-execute
// (exactly the classic NFS-over-UDP recovery behaviour).
func (srv *Server) ResetDRC() {
	srv.drc = make(map[drcKey]*drcEntry)
	srv.drcOrder = sim.Ring[drcKey]{}
}

// NewServer binds an RPC server to (stack, port) with nWorkers workers
// serving requests through h.
func NewServer(_ *sim.Scheduler, stack *udpip.Stack, port, nWorkers int, h Handler) *Server {
	return NewServiceServer(stack, port, nWorkers, func(w *Worker) Service {
		hs := &handlerService{h: h, w: w}
		hs.run = hs.handle
		return hs
	})
}

// NewServiceServer binds an RPC server to (stack, port) with nWorkers
// workers, each serving requests through its own service, from
// newService.
func NewServiceServer(stack *udpip.Stack, port, nWorkers int, newService func(w *Worker) Service) *Server {
	srv := &Server{sock: stack.Socket(port), stack: stack, drc: make(map[drcKey]*drcEntry)}
	for range max(nWorkers, 1) {
		w := &Worker{srv: srv, Job: host.Job{H: stack.Host()}}
		w.svc = newService(w)
		w.Job.Step = w.resume
		w.l = srv.sock.Listen(w.accept)
	}
	return srv
}

// Worker is one rpcd worker, an nfsd thread run by callbacks: a receive
// loop on the server socket (udpip.Socket.Listen) and the request it is
// serving. Event for event it runs what a worker process calling Recv
// and serving each request would run; it blocks only where its service
// does (host.Job.Block).
type Worker struct {
	// Job carries the request's span and its charges' continuation.
	Job host.Job
	// Req is the request being served; the service sets Reply.
	Req   Request
	Reply Reply

	srv   *Server
	svc   Service
	l     *udpip.Listener
	entry *drcEntry
	send  udpip.Sender
	stage workerStage
}

type workerStage uint8

const (
	workerDemux  workerStage = iota // charge receive demux and dispatch
	workerDRC                       // look the request up in the DRC
	workerHandle                    // run the service
	workerSend                      // transmit the reply
)

// accept takes a received datagram, as the worker process's code after
// Recv does, and reports whether the worker is done with it.
func (w *Worker) accept(d *udpip.Datagram) bool {
	srv := w.srv
	if srv.down {
		srv.Discarded++
		return true // crashed host: the request dies unexecuted
	}
	msg := d.Body.(*callMsg)
	w.Req = Request{
		Hdr:          msg.Hdr,
		PayloadBytes: msg.PayloadBytes,
		Payload:      msg.Payload,
		from:         d.From,
		fromPort:     d.FromPort,
		replyTag:     msg.replyTag,
	}
	// The request's span (if traced) is active for exactly the request's
	// scope, so server CPU, cache, disk and write-behind work attribute
	// to the originating operation — and the idle wait for the next
	// request attributes to nothing.
	w.Job.Span = msg.Hdr.Span
	w.stage = workerDemux
	return w.step()
}

// resume continues the request where a wait ended, and the receive loop
// if the request is done.
func (w *Worker) resume() {
	if w.step() {
		w.l.Resume()
	}
}

// step serves the request until it waits or is done.
func (w *Worker) step() bool {
	srv := w.srv
	w.Job.Resume()
	for {
		switch w.stage {
		case workerDemux:
			w.stage = workerDRC
			if !w.Job.Compute(srv.stack.Host().P.RPCServerCost) {
				return false
			}
		case workerDRC:
			key := drcKey{from: w.Req.from, fromPort: w.Req.fromPort, xid: w.Req.Hdr.XID}
			if e, dup := srv.drc[key]; dup {
				srv.Duplicates++
				if !e.done {
					// In progress: drop; the original execution will reply.
					return w.finish()
				}
				// Answer from the cache without re-executing.
				w.stage = workerSend
				if !srv.sock.SendThen(&w.Job, &w.send, w.Req.from, w.Req.fromPort, e.bytes, e.reply, 0, e.tag) {
					return false
				}
				return w.finish()
			}
			w.entry = &drcEntry{}
			srv.installDRC(key, w.entry)
			srv.Requests++
			w.stage = workerHandle
		case workerHandle:
			if !w.svc.Serve(w) {
				return false
			}
			r := &w.Reply
			if r.Hdr == nil {
				return w.finish()
			}
			out := &callMsg{Hdr: r.Hdr, PayloadBytes: r.PayloadBytes, Payload: r.Payload}
			e := w.entry
			e.done, e.reply, e.bytes, e.tag = true, out, int64(r.Hdr.WireSize())+r.PayloadBytes, w.Req.replyTag
			w.stage = workerSend
			if !srv.sock.SendThen(&w.Job, &w.send, w.Req.from, w.Req.fromPort, e.bytes, out, r.CopyBytes, e.tag) {
				return false
			}
			return w.finish()
		case workerSend:
			if !w.send.Step(&w.Job) {
				return false
			}
			return w.finish()
		}
	}
}

// finish ends the request: its span goes inactive and its state is
// dropped.
func (w *Worker) finish() bool {
	w.Job.Span, w.Req, w.Reply, w.entry = nil, Request{}, Reply{}, nil
	return true
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
func (c *Client) demux(d *udpip.Datagram) bool {
	msg := d.Body.(*callMsg)
	if fut := c.Answer(msg.Hdr.XID); fut != nil {
		fut.Resolve(&Response{
			Hdr:          msg.Hdr,
			PayloadBytes: msg.PayloadBytes,
			Payload:      msg.Payload,
			Direct:       d.Direct,
		})
	}
	return true
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
