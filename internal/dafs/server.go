// Package dafs implements the Direct Access File System of the paper: a
// user-level client and a kernel server speaking a session protocol over
// VI, with data transfer either in-line in responses or by server-initiated
// RDMA after explicit buffer advertisement (§2.1, §3.1), client-side
// registration caching, and batch I/O (§2.2).
//
// The Optimistic extension (ODAFS, §4.2) is layered on these types by
// internal/core: when a Server is created optimistic it exports its file
// cache blocks through the NIC TPT and piggybacks remote memory references
// on every read reply.
package dafs

import (
	"danas/internal/cache"
	"danas/internal/fsd"
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/obs"
	"danas/internal/sim"
	"danas/internal/vi"
	"danas/internal/wire"
)

// Server is a DAFS kernel server over the file service. While the host
// is down (fsd.Core.SetDown) the session layer discards arriving
// requests and suppresses replies of requests already in flight, so
// clients see silence and recover through their own retransmission.
// The NIC itself stays powered: ORDMA gets against exports the crash
// invalidated still fault back to the initiator through the NIC-to-NIC
// exception path (§4.1) rather than hanging it.
type Server struct {
	fsd.Core
	S *sim.Scheduler
	N *nic.NIC

	// Mode is the completion discipline for session QPs created by
	// Connect (Intr models the kernel server's default; §5.2 switches to
	// polling to isolate interrupt cost).
	Mode nic.NotifyMode

	// Optimistic enables the ODAFS server behaviour: cache blocks are
	// exported through the TPT at insert, invalidated at evict, and reads
	// piggyback remote memory references (§4.2.1).
	Optimistic bool

	// RDMATimeout, when positive, bounds the server's write-path data
	// pulls on session QPs created by later Connects: a pull whose
	// frames a down switch black-holed completes with nic.StatusTimeout
	// (the write fails with wire.StatusIO) instead of wedging the
	// session worker forever. Set before clients mount, and only on
	// multi-leaf fabrics — the single-switch star cannot black-hole.
	RDMATimeout sim.Duration

	msgs *sim.Pool[msg] // the simulation's message records (msgPools)

	// Discarded counts session requests dropped while down.
	Discarded uint64
}

// NewServer creates a DAFS server over the given file cache. When
// optimistic, the server cache's insert/evict hooks maintain TPT exports
// (the private 64-bit export space of §4.2.1).
func NewServer(s *sim.Scheduler, n *nic.NIC, fs *fsim.FS, sc *fsim.ServerCache, optimistic bool) *Server {
	srv := &Server{
		Core:       fsd.Core{H: n.Host(), FS: fs, Cache: sc},
		S:          s,
		N:          n,
		Mode:       nic.Intr,
		Optimistic: optimistic,
		msgs:       msgPools.Of(s),
	}
	if optimistic {
		sc.OnInsert = func(b *fsim.CacheBlock) {
			b.Export = n.TPT.Export(b.Len)
		}
		sc.OnEvict = func(b *fsim.CacheBlock) {
			if seg, ok := b.Export.(*nic.Segment); ok {
				n.TPT.Invalidate(seg)
				b.Export = nil
			}
		}
		sc.OnWrite = func(b *fsim.CacheBlock) {
			// A write landed in an exported block. The export maps the
			// block's memory, which now holds the new bytes, so a
			// same-extent overwrite leaves the reference valid and
			// direct reads serve post-write data. But an extending
			// write grew the block past the exported length: a direct
			// read through the old reference would cover only the
			// pre-write extent and serve stale bytes for the rest, so
			// the export is invalidated and reissued at the new length
			// — outstanding client references fault and fall back to
			// RPC, collecting a fresh reference (§4.2 principle (c)).
			seg, ok := b.Export.(*nic.Segment)
			if !ok {
				return
			}
			if seg.Valid() && seg.Len == b.Len {
				return
			}
			n.TPT.Invalidate(seg)
			b.Export = n.TPT.Export(b.Len)
		}
	}
	return srv
}

// Connect establishes a session from a client NIC: a QP pair plus a
// server session serving it (see session). It returns the client-side
// QP.
func (srv *Server) Connect(clientNIC *nic.NIC, clientMode nic.NotifyMode) *vi.QP {
	cqp, sqp := vi.Connect(clientNIC, srv.N, clientNIC.AllocPort(), srv.N.AllocPort(), clientMode, srv.Mode)
	sqp.SetRDMATimeout(srv.RDMATimeout)
	ss := &session{srv: srv, qp: sqp, job: host.Job{H: srv.H}}
	ss.job.Step = ss.resume
	ss.pulled = ss.pullDone
	ss.write.Init(&srv.Core, "dafsd-wb")
	ss.l = sqp.Listen(ss.accept)
	return cqp
}

// msg is the session message body carried over VI, a request or a
// reply, with its header held by value. The sender takes a record from
// the simulation's pool (msgPools) for every send, retransmissions
// included, and the receiver copies what it keeps and releases the
// record to the same pool before its receive callback returns. A
// message lost on the way leaves its record to the collector; none is
// shared by two transmissions, so a late or duplicate message always
// carries its own contents.
type msg struct {
	Hdr wire.Header
	// Batch carries the extra ranges of a batch I/O request.
	Batch []int64
	// Data carries real bytes for content-bearing writes.
	Data []byte
	// Ref is the file range an in-line read reply's payload carries.
	Ref fsim.BlockRef
}

// msgPools and callPools name the simulation's pools of message and
// call records, which every client and server session on a scheduler
// share: a pool per session would warm to that session's own high
// water, and a fleet has thousands of sessions.
var (
	msgPools  = sim.NewPoolKey[msg]()
	callPools = sim.NewPoolKey[nas.Call[completion, sent]]()
)

// session is the server side of one DAFS session, a kernel worker run
// by callbacks: a receive loop on the session QP (vi.QP.Listen) and the
// request it is serving, created once at Connect. Event for event it
// runs what a worker process calling Recv and serving each request
// would run; it blocks only in write-behind (host.Job.Block).
type session struct {
	srv   *Server
	qp    *vi.QP
	l     *nic.Listener
	job   host.Job
	hdr   wire.Header // the request's header, copied at accept
	batch []int64     // its extra ranges
	data  []byte      // its bytes
	stage sstage

	f          *fsim.File
	i          int // the read range at hand: -1 is Hdr.Offset, then Batch[i]
	got, total int64
	walk       fsim.Walk
	write      fsd.Write
	st         nic.Status // the write pull's completion status
	out        vi.Msg     // the reply, its send cost being charged

	pulled func(nic.Status) // ss.pullDone, bound once
}

// sstage is where a session is in its request: the step to run next.
type sstage uint8

const (
	sDemux        sstage = iota // charge session demux and handler work
	sDispatch                   // dispatch on the operation
	sRange                      // read: start the next range's walk
	sWalk                       // read: walking a range's cache blocks
	sPush                       // read: push a range by RDMA write
	sRangeDone                  // read: the range is done
	sPullCharge                 // write: charge the QP's post cost
	sPullPost                   // write: post the RDMA get
	sPulled                     // write: the get has completed
	sPullConsumed               // write: its completion is consumed
	sWriteData                  // write: data in hand, start its admission
	sWriteAdmit                 // write: admitting it (fsd.Write)
	sSend                       // the reply's send cost is charged
)

// accept takes a received message, as the session process's code after
// Recv does, and reports whether the session is done with it.
//
// The request is copied out and its record released: the message is
// valid only during this call.
func (ss *session) accept(m nic.Message) bool {
	req := m.Header.(*msg)
	if ss.srv.Down() {
		ss.srv.msgs.Release(req)
		ss.srv.Discarded++
		return true // crashed host: the request dies unexecuted
	}
	ss.hdr, ss.batch, ss.data = req.Hdr, req.Batch, req.Data
	ss.srv.msgs.Release(req)
	// The request's span (if traced) is active for exactly its scope, so
	// server CPU, cache, disk and write-behind work attribute to the
	// originating operation while the idle wait for the next request
	// attributes to nothing.
	ss.job.Span = ss.hdr.Span
	ss.stage = sDemux
	return ss.serve()
}

// resume continues the request where a wait ended, and the receive loop
// if the request is done.
func (ss *session) resume() {
	if ss.serve() {
		ss.l.Resume()
	}
}

// serve runs the request until it waits or is done.
func (ss *session) serve() bool {
	srv, j := ss.srv, &ss.job
	p := srv.H.P
	h := &ss.hdr
	j.Resume()
	for {
		switch ss.stage {
		case sDemux:
			ss.stage = sDispatch
			if !j.Compute(p.RPCServerCost + p.DAFSServerOp) {
				return false
			}
		case sDispatch:
			switch h.Op {
			case wire.OpRead:
				f := srv.File(h.FH)
				if f == nil {
					return ss.status(wire.StatusStale)
				}
				ss.f, ss.i, ss.total, ss.stage = f, -1, 0, sRange
			case wire.OpWrite:
				f := srv.File(h.FH)
				if f == nil {
					return ss.status(wire.StatusStale)
				}
				if srv.Down() {
					return ss.finish() // crash between receive and execution: the write dies with the host
				}
				ss.f, ss.stage = f, sWriteData
				if h.BufVA != 0 && h.Length > 0 {
					// Pull the data by RDMA read from the advertised
					// buffer: this handler's post cost, then the QP's own.
					ss.stage = sPullCharge
					if !j.Compute(p.GMSendCost + p.PIOWrite) {
						return false
					}
				}
			case wire.OpCommit:
				// A commit can block for many milliseconds of destage; run
				// it on its own process so it never head-of-line-blocks the
				// session's other requests (the client matches replies by
				// XID, so out-of-order completion is fine). Write-path
				// backpressure stays in-line by design: throttling the
				// session is how the server sheds offered write load.
				req, qp := ss.hdr, ss.qp
				srv.S.Go("dafs-commit", func(cp *sim.Proc) {
					obs.Activate(cp, req.Span)
					srv.commit(cp, qp, &req)
				})
				return ss.finish()
			default:
				return ss.reply(srv.Meta(h))
			}
		case sRange:
			if ss.i == len(ss.batch) {
				return ss.readReply()
			}
			off := h.Offset
			if ss.i >= 0 {
				off = ss.batch[ss.i]
			}
			ss.got = fsd.ReadLen(ss.f, off, h.Length)
			ss.walk.Start(srv.Cache, ss.f, off, ss.got)
			ss.stage = sWalk
		case sWalk:
			if !ss.walk.Step(j, srv.Down()) {
				return false
			}
			ss.stage = sRangeDone
			if ss.got > 0 && h.BufVA != 0 && !srv.Down() {
				// Direct transfer: one RDMA write per range.
				ss.stage = sPush
				if !j.Compute(p.GMSendCost + p.PIOWrite) {
					return false
				}
			}
		case sPush:
			srv.N.RDMAAsync(nic.Op{
				Kind:   nic.Put,
				Target: ss.qp.Peer().NIC(),
				VA:     h.BufVA + uint64(ss.total),
				Len:    ss.got,
				Notify: nic.Poll,
			})
			ss.stage = sRangeDone
		case sRangeDone:
			ss.total += ss.got
			srv.Reads++
			srv.BytesRead += ss.got
			ss.i++
			ss.stage = sRange
		case sPullCharge:
			ss.stage = sPullPost
			if !j.Compute(p.GMSendCost + p.PIOWrite) {
				return false
			}
		case sPullPost:
			ss.qp.RDMAAsync(nic.Get, h.BufVA, h.Length, nil, ss.pulled)
			// The descriptor's whole flight is wire time of the request.
			j.Open(obs.PhaseWire)
			ss.stage = sPulled
			return false
		case sPulled:
			ss.stage = sPullConsumed
			if !j.Compute(ss.qp.CompletionCost()) {
				return false
			}
		case sPullConsumed:
			if ss.st != nic.StatusOK {
				return ss.status(wire.StatusIO)
			}
			ss.stage = sWriteData
		case sWriteData:
			ss.write.Start(ss.f, h, ss.data)
			ss.stage = sWriteAdmit
		case sWriteAdmit:
			verifier, done := ss.write.Step(j)
			if !done {
				return false
			}
			return ss.written(verifier)
		case sSend:
			ss.qp.SendAsync(&ss.out)
			return ss.finish()
		}
	}
}

// readReply answers a read whose ranges are all done: the data already
// in flight ahead of a direct reply, or riding an in-line one (gather
// DMA, no copy).
func (ss *session) readReply() bool {
	srv, h := ss.srv, &ss.hdr
	va, length, capBytes := srv.refFor(ss.f, h.Offset)
	resp := wire.Header{
		Op: h.Op, XID: h.XID, Status: wire.StatusOK, Length: ss.total,
		RefVA: va, RefLen: length, RefCap: capBytes,
	}
	if h.BufVA != 0 {
		return ss.reply(resp)
	}
	if srv.Down() {
		return ss.finish() // crash mid-read: the in-line reply is never transmitted
	}
	return ss.send(vi.Msg{
		HeaderBytes:  resp.WireSize(),
		PayloadBytes: ss.total,
		Header:       srv.msgs.Copy(&msg{Hdr: resp, Ref: fsim.BlockRef{File: ss.f.ID, Off: h.Offset, Len: ss.total}}),
		Span:         ss.job.Span,
	})
}

// pullDone is the write pull's completion: the request resumes through
// the one same-instant event a signal fired here would post for a
// waiting process.
func (ss *session) pullDone(st nic.Status) {
	ss.st = st
	ss.srv.S.After(0, ss.job.Step)
}

// written replies to a write that is in the cache, carrying verifier.
func (ss *session) written(verifier uint64) bool {
	h := &ss.hdr
	return ss.reply(wire.Header{Op: h.Op, XID: h.XID, Status: wire.StatusOK, Length: h.Length, Verifier: verifier})
}

// status replies with a bare status.
func (ss *session) status(st uint32) bool {
	h := &ss.hdr
	return ss.reply(wire.Header{Op: h.Op, XID: h.XID, Status: st})
}

// reply sends the response header h, unless the host has crashed: a
// crash between receive and reply drops the in-flight request.
func (ss *session) reply(h wire.Header) bool {
	if ss.srv.Down() {
		return ss.finish()
	}
	return ss.send(vi.Msg{HeaderBytes: h.WireSize(), Header: ss.srv.msgs.Copy(&msg{Hdr: h}), Span: ss.job.Span})
}

// send transmits m to the client, charging the host send cost (library
// and doorbell) first, as vi.QP.Send does.
func (ss *session) send(m vi.Msg) bool {
	ss.out, ss.stage = m, sSend
	if !ss.job.Compute(ss.srv.H.P.GMSendCost + ss.srv.H.P.PIOWrite) {
		return false
	}
	ss.qp.SendAsync(&ss.out)
	return ss.finish()
}

// finish ends the request: its span goes inactive and its state is
// dropped.
func (ss *session) finish() bool {
	ss.job.Span, ss.hdr, ss.batch, ss.data, ss.f, ss.out = nil, wire.Header{}, nil, nil, nil, vi.Msg{}
	return true
}

// refFor returns the piggyback reference for the cache block covering
// (f, off), when the server is optimistic and the block is exported.
func (srv *Server) refFor(f *fsim.File, off int64) (va uint64, length int64, capBytes []byte) {
	if !srv.Optimistic {
		return 0, 0, nil
	}
	b, ok := srv.Cache.Peek(f, off)
	if !ok || b.Export == nil {
		return 0, 0, nil
	}
	seg, ok := b.Export.(*nic.Segment)
	if !ok {
		// A crash or foreign writer left something that is not a live
		// segment in the export slot: piggyback nothing instead of
		// panicking — the client's next ORDMA against any stale
		// reference it still holds faults and falls back to RPC.
		return 0, 0, nil
	}
	if !seg.Valid() {
		return 0, 0, nil
	}
	return seg.VA, seg.Len, seg.Cap
}

// commit serves OpCommit on its own process: destage the range through
// the file service (fsd.Core.Commit) and report the write verifier.
func (srv *Server) commit(p *sim.Proc, qp *vi.QP, h *wire.Header) {
	f := srv.File(h.FH)
	if f == nil {
		srv.reply(p, qp, wire.Header{Op: h.Op, XID: h.XID, Status: wire.StatusStale})
		return
	}
	if srv.Down() {
		return // crash between receive and execution: the commit dies with the host
	}
	verifier := srv.Commit(p, f, h.Offset, h.Length)
	srv.reply(p, qp, wire.Header{
		Op: h.Op, XID: h.XID, Status: wire.StatusOK, Verifier: verifier,
	})
}

// reply sends the commit's response header h from its process, unless
// the host has crashed.
func (srv *Server) reply(p *sim.Proc, qp *vi.QP, h wire.Header) {
	if srv.Down() {
		return
	}
	qp.Send(p, &vi.Msg{HeaderBytes: h.WireSize(), Header: srv.msgs.Copy(&msg{Hdr: h}), Span: obs.Active(p)})
}

// RemoteRefOf converts piggybacked reply fields into a directory entry,
// by value: VA 0 when the reply carries none.
func RemoteRefOf(h *wire.Header) cache.RemoteRef {
	if h.RefVA == 0 {
		return cache.RemoteRef{}
	}
	return cache.RemoteRef{VA: h.RefVA, Len: h.RefLen, Cap: h.RefCap}
}
