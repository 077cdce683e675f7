// Package rpc is a SunRPC-style remote procedure call layer over UDP/IP:
// transaction IDs, request/response matching with multiple outstanding
// calls, and reply payload delivery either through the normal copy path or
// by RDDP-RPC direct placement when the caller pre-posted a tagged buffer.
//
// NFS and its two optimized derivatives ride this layer; DAFS has its own
// session protocol over VI (see internal/dafs).
package rpc

import (
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/udpip"
	"danas/internal/wire"
)

// callMsg is the datagram body of one transmission, a request or a
// reply, with its header held by value. The sender takes a record from
// the simulation's pool (msgPools) for every send, retransmissions and
// cached replies included, and the receiver copies what it keeps and
// releases the record to the same pool before its receive callback
// returns. A transmission lost on the way leaves its record to the
// collector; none is ever shared by two transmissions, so a late or
// duplicate datagram always carries its own contents.
type callMsg struct {
	Hdr          wire.Header
	PayloadBytes int64
	Payload      any
	Ref          fsim.BlockRef
	// replyTag, on requests, asks the server to stamp this tag on its
	// reply so the client NIC can match a pre-posted buffer.
	replyTag uint64
}

// msgPools and callPools name the simulation's pools of message and
// call records, which every client and server on a scheduler share: a
// pool per connection would warm to that connection's own high water,
// and a fleet has thousands of connections.
var (
	msgPools  = sim.NewPoolKey[callMsg]()
	callPools = sim.NewPoolKey[nas.Call[Response, sent]]()
)

// Request is a received call, handed to the server handler. Hdr points
// at the worker's own copy of the request header, valid until the
// request is done.
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

// Reply is the handler's response. The worker copies it, header
// included, when the service reports it done, so the service may keep
// the header in storage of its own that it reuses for the next request.
type Reply struct {
	Hdr          *wire.Header
	PayloadBytes int64
	Payload      any
	// Ref, when its Len is nonzero, is the file range the payload bytes
	// carry, held by value so that a read reply records it without
	// allocating.
	Ref fsim.BlockRef
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

// drcKey identifies a request for the duplicate-request cache: the
// client, by the number the server gave its stack on its first request
// (see peerOf), the client's port and the call's XID. It holds no
// pointer, so the index map over it is never scanned by the collector.
type drcKey struct {
	peer int32
	port int32
	xid  uint64
}

// drcReply is a cached reply without its pointer-valued parts: the
// header's scalar fields, PayloadBytes and Ref. A reply that sets Name,
// RefCap, Span or Payload is kept whole in the server's side table
// instead (see Server.drcRich).
type drcReply struct {
	op           wire.Op
	flags        uint8
	status       uint32
	xid, fh      uint64
	offset       int64
	length       int64
	bufVA, refVA uint64
	refLen       int64
	verifier     uint64
	payloadBytes int64
	ref          fsim.BlockRef
}

// plain reports whether m carries nothing a drcReply drops.
func plain(m *callMsg) bool {
	h := &m.Hdr
	return h.Name == "" && h.RefCap == nil && h.Span == nil && m.Payload == nil
}

// keep copies a plain message's reply fields.
func keep(m *callMsg) drcReply {
	h := &m.Hdr
	return drcReply{
		op: h.Op, flags: h.Flags, status: h.Status, xid: h.XID, fh: h.FH,
		offset: h.Offset, length: h.Length, bufVA: h.BufVA, refVA: h.RefVA,
		refLen: h.RefLen, verifier: h.Verifier, payloadBytes: m.PayloadBytes, ref: m.Ref,
	}
}

// msg rebuilds the message the reply was kept from.
func (r *drcReply) msg() callMsg {
	return callMsg{
		Hdr: wire.Header{
			Op: r.op, XID: r.xid, FH: r.fh, Offset: r.offset, Length: r.length,
			Status: r.status, BufVA: r.bufVA, RefVA: r.refVA, RefLen: r.refLen,
			Flags: r.flags, Verifier: r.verifier,
		},
		PayloadBytes: r.payloadBytes,
		Ref:          r.ref,
	}
}

// drcEntry caches a completed reply, by value, so retransmitted requests
// are answered without re-executing the handler (at-most-once
// execution). Entries fill a ring of drcLimit slots; gen tells a slot's
// successive requests apart (0 marks a slot never filled). Like its key,
// an entry holds no pointer: the ring's chunks are allocations the
// collector never scans.
type drcEntry struct {
	key   drcKey
	gen   uint64
	reply drcReply // unless rich
	bytes int64
	tag   uint64
	done  bool
	rich  bool // the reply is in the server's side table
}

// drcLimit bounds the duplicate-request cache, like the classic 2049-entry
// nfsd DRC.
const drcLimit = 2048

// drcChunk is drcChunkLen consecutive slots of the ring, allocated when
// the first of them is filled, so a server that sees a few hundred
// requests pays for a quarter of the ring. A full ring costs three
// allocations more than one made whole.
type drcChunk [drcChunkLen]drcEntry

const drcChunkLen = 512

// Server serves RPCs with a fixed pool of workers, like nfsd.
type Server struct {
	sock  *udpip.Socket
	stack *udpip.Stack

	// drc maps a remembered request to its slot in drcRing, whose
	// drcLimit slots are filled in turn, the oldest overwritten first
	// (drcNext). The index is made whole on the first request, the ring
	// a chunk at a time (see installDRC). drcRich holds, by slot, the
	// replies too rich for an entry; peers numbers the client stacks for
	// drcKey.
	drc     map[drcKey]int32
	drcRing [drcLimit / drcChunkLen]*drcChunk
	drcNext int
	drcGen  uint64
	drcRich map[int32]callMsg
	peers   map[*udpip.Stack]int32
	msgs    *sim.Pool[callMsg]

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
	clear(srv.drc)
	for _, c := range srv.drcRing {
		if c != nil {
			*c = drcChunk{}
		}
	}
	clear(srv.drcRich)
	srv.drcNext = 0
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
	srv := &Server{sock: stack.Socket(port), stack: stack, msgs: msgPools.Of(stack.Host().S)}
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
	hdr   wire.Header // the request header Req.Hdr points at
	slot  int         // the request's DRC entry: its slot in the ring
	gen   uint64      // and the generation that marks it there
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
// Recv does, and reports whether the worker is done with it. The request
// is copied out and its record released: the datagram and its body are
// valid only during this call.
func (w *Worker) accept(d *udpip.Datagram) bool {
	srv := w.srv
	msg := d.Body.(*callMsg)
	if srv.down {
		srv.msgs.Release(msg)
		srv.Discarded++
		return true // crashed host: the request dies unexecuted
	}
	w.hdr = msg.Hdr
	w.Req = Request{
		Hdr:          &w.hdr,
		PayloadBytes: msg.PayloadBytes,
		Payload:      msg.Payload,
		from:         d.From,
		fromPort:     d.FromPort,
		replyTag:     msg.replyTag,
	}
	srv.msgs.Release(msg)
	// The request's span (if traced) is active for exactly the request's
	// scope, so server CPU, cache, disk and write-behind work attribute
	// to the originating operation — and the idle wait for the next
	// request attributes to nothing.
	w.Job.Span = w.hdr.Span
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
			key := drcKey{peer: srv.peerOf(w.Req.from), port: int32(w.Req.fromPort), xid: w.hdr.XID}
			if i, dup := srv.drc[key]; dup {
				srv.Duplicates++
				e := srv.drcSlot(int(i))
				if !e.done {
					// In progress: drop; the original execution will reply.
					return w.finish()
				}
				// Answer from the cache without re-executing.
				var m callMsg
				if e.rich {
					m = srv.drcRich[i]
				} else {
					m = e.reply.msg()
				}
				w.stage = workerSend
				if !srv.sock.SendThen(&w.Job, &w.send, w.Req.from, w.Req.fromPort, e.bytes, srv.msgs.Copy(&m), 0, e.tag) {
					return false
				}
				return w.finish()
			}
			w.slot, w.gen = srv.installDRC(key)
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
			out := callMsg{Hdr: *r.Hdr, PayloadBytes: r.PayloadBytes, Payload: r.Payload, Ref: r.Ref}
			bytes, tag := int64(r.Hdr.WireSize())+r.PayloadBytes, w.Req.replyTag
			// A slot that more than drcLimit later requests overwrote
			// meanwhile, or that a crash cleared, is not this request's.
			if e := srv.drcSlot(w.slot); e.gen == w.gen {
				e.done, e.bytes, e.tag = true, bytes, tag
				if plain(&out) {
					e.reply = keep(&out)
				} else {
					if srv.drcRich == nil {
						srv.drcRich = make(map[int32]callMsg)
					}
					e.rich = true
					srv.drcRich[int32(w.slot)] = out
				}
			}
			w.stage = workerSend
			if !srv.sock.SendThen(&w.Job, &w.send, w.Req.from, w.Req.fromPort, bytes, srv.msgs.Copy(&out), r.CopyBytes, tag) {
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
	w.Job.Span, w.Req, w.Reply = nil, Request{}, Reply{}
	return true
}

// drcSlot returns slot i of the ring, in a chunk already allocated.
func (srv *Server) drcSlot(i int) *drcEntry {
	return &srv.drcRing[i/drcChunkLen][i%drcChunkLen]
}

// installDRC records a request in the duplicate-request cache, in the
// oldest slot once the ring is full, and returns its slot and
// generation. The index is made whole on the server's first request
// rather than at construction (every cluster builds NFS servers, but
// only NFS cells call them), and each chunk of the ring when its first
// slot is filled.
func (srv *Server) installDRC(key drcKey) (int, uint64) {
	if srv.drc == nil {
		srv.drc = make(map[drcKey]int32, drcLimit)
	}
	srv.drcGen++
	i := srv.drcNext
	srv.drcNext = (i + 1) % drcLimit
	if c := &srv.drcRing[i/drcChunkLen]; *c == nil {
		*c = new(drcChunk)
	}
	e := srv.drcSlot(i)
	if e.gen != 0 {
		delete(srv.drc, e.key)
		if e.rich {
			delete(srv.drcRich, int32(i))
		}
	}
	*e = drcEntry{key: key, gen: srv.drcGen}
	srv.drc[key] = int32(i)
	return i, srv.drcGen
}

// peerOf returns the number the server gave the client stack st,
// numbering stacks in the order of their first requests.
func (srv *Server) peerOf(st *udpip.Stack) int32 {
	n, ok := srv.peers[st]
	if !ok {
		if srv.peers == nil {
			srv.peers = make(map[*udpip.Stack]int32)
		}
		n = int32(len(srv.peers))
		srv.peers[st] = n
	}
	return n
}

// Response is a completed call as seen by the client. A reply lives in
// the client's call record, which goes back to the simulation's pool
// once Call returns: it stays valid until the calling process next
// blocks or makes another call on any client of the simulation, so a
// caller copies what it keeps. A failed call's Response is the caller's
// own.
type Response struct {
	Hdr          *wire.Header
	PayloadBytes int64
	Payload      any
	Ref          fsim.BlockRef
	// Direct reports the payload was placed by the NIC into the
	// pre-posted buffer: the client must not copy it anywhere.
	Direct bool
	// Err is non-nil when the call failed locally without a reply
	// (retry exhaustion: nas.ErrTimeout — the server is crashed,
	// partitioned or hopelessly overloaded); Hdr and the payload fields
	// are unset and must not be touched.
	Err error

	hdr wire.Header // the reply header Hdr points at
}

// CallOpts tunes one call.
type CallOpts struct {
	// PayloadBytes/Payload attach request payload (writes).
	PayloadBytes int64
	Payload      any
	// CopyBytes is client-side copy work staging the request payload.
	CopyBytes int64
	// Prepare, if set, runs after the XID is assigned and before the
	// request is transmitted, with the client's copy of the request
	// header, valid during the call; it returns the reply tag to request
	// (the pre-posting client registers and pre-posts its buffer here).
	Prepare func(req *wire.Header) uint64
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
	msgs       *sim.Pool[callMsg]

	nas.CallTable[Response, sent]
}

// sent is a transmitted request, kept by value in the call record for
// retransmission.
type sent struct {
	msg   callMsg
	bytes int64
}

// NewClient creates a client on stack calling (server, serverPort), bound
// to the given local port. The scheduler is the stack's; the client's
// call and message records come from its pools.
func NewClient(s *sim.Scheduler, stack *udpip.Stack, localPort int, server *udpip.Stack, serverPort int) *Client {
	c := &Client{
		stack:      stack,
		sock:       stack.Socket(localPort),
		server:     server,
		serverPort: serverPort,
		msgs:       msgPools.Of(s),
	}
	c.Init(callPools.Of(s), c.resend)
	c.sock.Listen(c.demux)
	return c
}

// demux resolves the pending call a received reply answers, copying the
// reply into the call's record and releasing the reply's.
func (c *Client) demux(d *udpip.Datagram) bool {
	msg := d.Body.(*callMsg)
	if call := c.Answer(msg.Hdr.XID); call != nil {
		r := &call.Reply
		r.hdr = msg.Hdr
		r.Hdr, r.PayloadBytes, r.Payload, r.Ref, r.Direct = &r.hdr, msg.PayloadBytes, msg.Payload, msg.Ref, d.Direct
		call.Resolve()
	}
	c.msgs.Release(msg)
	return true
}

// resend retransmits a request from the kernel RPC timer, charging the
// send-side cost asynchronously.
func (c *Client) resend(r *sent) {
	h := c.stack.Host()
	h.ComputeAsync(h.P.RPCClientSend, nil)
	c.sock.SendToAsync(c.server, c.serverPort, r.bytes, c.msgs.Copy(&r.msg), 0)
}

// Call sends req and blocks until the matching reply arrives. The header's
// XID is assigned by the client. The Response is valid until the calling
// process next blocks or calls the client again (see Response).
func (c *Client) Call(p *sim.Proc, req *wire.Header, opts CallOpts) *Response {
	j := host.Carried(c.stack.Host(), p)
	var m Caller
	c.CallThen(&j, &m, req, opts)
	return m.Resp
}

// Caller is one call run as a step machine (see host.Job): the call
// record, the send, and the charge or wait it is at. A caller keeps one
// and reuses it.
type Caller struct {
	c     *Client
	call  *nas.Call[Response, sent]
	copy  int64
	send  udpip.Sender
	stage callStage
	// Resp is the finished call's response, as Call returns it.
	Resp *Response
}

type callStage uint8

const (
	callSendCost callStage = iota // charge the send-side RPC cost
	callSend                      // transmit the request
	callSending                   // a send under way
	callAwait                     // wait for the reply
	callRecvCost                  // charge the receive-side RPC cost
	callDone
)

// CallThen is Call as a step machine over j: it reports true once m.Resp
// holds the response; otherwise j waits, and j.Step must call m.Step
// until it reports true.
func (c *Client) CallThen(j *host.Job, m *Caller, req *wire.Header, opts CallOpts) bool {
	call := c.Begin(j, req)
	s := &call.Req
	s.msg.Hdr = *req
	s.msg.PayloadBytes, s.msg.Payload = opts.PayloadBytes, opts.Payload
	s.bytes = int64(req.WireSize()) + opts.PayloadBytes
	if opts.Prepare != nil {
		s.msg.replyTag = opts.Prepare(&s.msg.Hdr)
	}
	*m = Caller{c: c, call: call, copy: opts.CopyBytes}
	return m.Step(j)
}

// Step advances the call on j, as CallThen.
func (m *Caller) Step(j *host.Job) bool {
	c := m.c
	h := c.stack.Host()
	for {
		switch m.stage {
		case callSendCost:
			m.stage = callSend
			if !j.Compute(h.P.RPCClientSend) {
				return false
			}
		case callSend:
			s := &m.call.Req
			m.stage = callAwait
			if !c.sock.SendThen(j, &m.send, c.server, c.serverPort, s.bytes, c.msgs.Copy(&s.msg), m.copy, 0) {
				m.stage = callSending
				return false
			}
		case callSending:
			if !m.send.Step(j) {
				return false
			}
			m.stage = callAwait
		case callAwait:
			m.stage = callRecvCost
			if !c.Await(j, m.call) {
				return false
			}
		case callRecvCost:
			m.stage = callDone
			if !j.Compute(h.P.RPCClientRecv) {
				return false
			}
		case callDone:
			resp, err := m.call.Result()
			c.End(m.call)
			m.call = nil
			if err != nil {
				resp = &Response{Err: err} // the caller's own: failures are rare
			}
			m.Resp = resp
			return true
		}
	}
}
