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
	"fmt"

	"danas/internal/cache"
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nic"
	"danas/internal/obs"
	"danas/internal/sim"
	"danas/internal/vi"
	"danas/internal/wb"
	"danas/internal/wire"
)

// Server is a DAFS kernel server.
type Server struct {
	S     *sim.Scheduler
	H     *host.Host
	N     *nic.NIC
	FS    *fsim.FS
	Cache *fsim.ServerCache

	// Mode is the completion discipline for session QPs created by
	// Connect (Intr models the kernel server's default; §5.2 switches to
	// polling to isolate interrupt cost).
	Mode nic.NotifyMode

	// Optimistic enables the ODAFS server behaviour: cache blocks are
	// exported through the TPT at insert, invalidated at evict, and reads
	// piggyback remote memory references (§4.2.1).
	Optimistic bool

	// WB, when set, is the shard's write-behind subsystem: writes pass
	// through it (dirty tracking, stability, backpressure) and replies
	// carry its write verifier. Nil keeps the legacy semantics — a write
	// is done once its data is in the buffer cache.
	WB *wb.Flusher

	// RDMATimeout, when positive, bounds the server's write-path data
	// pulls on session QPs created by later Connects: a pull whose
	// frames a down switch black-holed completes with nic.StatusTimeout
	// (the write fails with wire.StatusIO) instead of wedging the
	// session worker forever. Set before clients mount, and only on
	// multi-leaf fabrics — the single-switch star cannot black-hole.
	RDMATimeout sim.Duration

	// down marks the server host crashed: session requests are discarded
	// and replies suppressed (failure injection; see SetDown).
	down bool

	Reads, Writes uint64
	BytesRead     int64
	// Discarded counts session requests dropped while down.
	Discarded uint64
	sessions  int
}

// SetDown marks the server host crashed (true) or restarted (false).
// While down the session layer discards arriving requests and
// suppresses replies of requests already in flight, so clients see
// silence and recover through their own retransmission. The NIC itself
// stays powered: ORDMA gets against exports the crash invalidated still
// fault back to the initiator through the NIC-to-NIC exception path
// (§4.1) rather than hanging it.
func (srv *Server) SetDown(down bool) { srv.down = down }

// NewServer creates a DAFS server over the given file cache. When
// optimistic, the server cache's insert/evict hooks maintain TPT exports
// (the private 64-bit export space of §4.2.1).
func NewServer(s *sim.Scheduler, n *nic.NIC, fs *fsim.FS, sc *fsim.ServerCache, optimistic bool) *Server {
	srv := &Server{
		S: s, H: n.Host(), N: n, FS: fs, Cache: sc,
		Mode:       nic.Intr,
		Optimistic: optimistic,
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

// Connect establishes a session from a client NIC: a QP pair plus a server
// worker process serving it. It returns the client-side QP.
func (srv *Server) Connect(clientNIC *nic.NIC, clientMode nic.NotifyMode) *vi.QP {
	srv.sessions++
	cqp, sqp := vi.Connect(clientNIC, srv.N, clientNIC.AllocPort(), srv.N.AllocPort(), clientMode, srv.Mode)
	sqp.SetRDMATimeout(srv.RDMATimeout)
	srv.S.Go(fmt.Sprintf("dafsd-%d", srv.sessions), func(p *sim.Proc) {
		srv.serve(p, sqp)
	})
	return cqp
}

// msg is the session message body carried over VI.
type msg struct {
	Hdr *wire.Header
	// Batch carries the extra ranges of a batch I/O request.
	Batch []int64
	// Data carries real bytes for content-bearing writes.
	Data []byte
}

func (srv *Server) serve(p *sim.Proc, qp *vi.QP) {
	for {
		m := qp.Recv(p)
		if srv.down {
			srv.Discarded++
			continue // crashed host: the request dies unexecuted
		}
		srv.serveOne(p, qp, m.Header.(*msg))
	}
}

// serveOne dispatches one session request with its span (if traced)
// active for exactly the request's scope, so server CPU, cache, disk and
// write-behind work attribute to the originating operation while the
// session worker's idle Recv wait attributes to nothing.
func (srv *Server) serveOne(p *sim.Proc, qp *vi.QP, req *msg) {
	obs.Activate(p, req.Hdr.Span)
	defer obs.Activate(p, nil)
	// Session demux + protocol handler work.
	srv.H.Compute(p, srv.H.P.RPCServerCost+srv.H.P.DAFSServerOp)
	switch req.Hdr.Op {
	case wire.OpRead:
		srv.read(p, qp, req)
	case wire.OpWrite:
		srv.write(p, qp, req)
	case wire.OpCommit:
		// A commit can block for many milliseconds of destage; run
		// it on its own process so it never head-of-line-blocks the
		// session's other requests (the client matches replies by
		// XID, so out-of-order completion is fine). Write-path
		// backpressure stays in-line by design: throttling the
		// session is how the server sheds offered write load.
		srv.S.Go("dafs-commit", func(cp *sim.Proc) {
			obs.Activate(cp, req.Hdr.Span)
			srv.commit(cp, qp, req)
		})
	case wire.OpOpen, wire.OpLookup:
		srv.openOp(p, qp, req)
	case wire.OpGetattr:
		srv.getattr(p, qp, req)
	case wire.OpCreate:
		srv.createOp(p, qp, req)
	case wire.OpRemove:
		srv.removeOp(p, qp, req)
	case wire.OpClose, wire.OpMount:
		srv.reply(p, qp, &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusOK})
	default:
		srv.reply(p, qp, &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusIO})
	}
}

func (srv *Server) reply(p *sim.Proc, qp *vi.QP, h *wire.Header) {
	if srv.down {
		return // a crash between receive and reply drops the in-flight RPC
	}
	qp.Send(p, &vi.Msg{HeaderBytes: h.WireSize(), Header: &msg{Hdr: h}, Span: obs.Active(p)})
}

func (srv *Server) openOp(p *sim.Proc, qp *vi.QP, req *msg) {
	f, err := srv.FS.Lookup(req.Hdr.Name)
	if err != nil {
		srv.reply(p, qp, &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusNoEnt})
		return
	}
	srv.reply(p, qp, &wire.Header{
		Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusOK,
		FH: uint64(f.ID), Length: f.Size(),
	})
}

func (srv *Server) getattr(p *sim.Proc, qp *vi.QP, req *msg) {
	f, err := srv.FS.ByID(fsim.FileID(req.Hdr.FH))
	if err != nil {
		srv.reply(p, qp, &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusStale})
		return
	}
	srv.reply(p, qp, &wire.Header{
		Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusOK, FH: req.Hdr.FH, Length: f.Size(),
	})
}

func (srv *Server) createOp(p *sim.Proc, qp *vi.QP, req *msg) {
	f, err := srv.FS.Create(req.Hdr.Name, 0)
	if err != nil {
		srv.reply(p, qp, &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusExist})
		return
	}
	srv.reply(p, qp, &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusOK, FH: uint64(f.ID)})
}

func (srv *Server) removeOp(p *sim.Proc, qp *vi.QP, req *msg) {
	if err := srv.FS.Remove(req.Hdr.Name); err != nil {
		srv.reply(p, qp, &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusNoEnt})
		return
	}
	srv.reply(p, qp, &wire.Header{Op: req.Hdr.Op, XID: req.Hdr.XID, Status: wire.StatusOK})
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

// read serves one read: touch cache blocks (disk on miss), then move the
// data in-line or by RDMA write into the advertised client buffer.
func (srv *Server) read(p *sim.Proc, qp *vi.QP, req *msg) {
	h := req.Hdr
	f, err := srv.FS.ByID(fsim.FileID(h.FH))
	if err != nil {
		srv.reply(p, qp, &wire.Header{Op: h.Op, XID: h.XID, Status: wire.StatusStale})
		return
	}
	n := h.Length
	var firstRefVA uint64
	var firstRefLen int64
	var firstRefCap []byte
	total := int64(0)
	// The request's ranges: h.Offset, then each of req.Batch.
	for i := -1; i < len(req.Batch); i++ {
		off := h.Offset
		if i >= 0 {
			off = req.Batch[i]
		}
		got := n
		if off >= f.Size() {
			got = 0
		} else if off+got > f.Size() {
			got = f.Size() - off
		}
		// A crash mid-handler stops the walk: a dead host does no
		// kernel work and must not re-populate (and re-export) blocks
		// the crash just flushed and invalidated.
		for bo := off; bo < off+got && !srv.down; bo += srv.Cache.BlockSize() {
			srv.H.Compute(p, srv.H.P.CacheLookup)
			if _, hit := srv.Cache.Get(p, f, bo); !hit {
				srv.H.Compute(p, srv.H.P.CacheInsert)
			}
		}
		if got > 0 && h.BufVA != 0 && !srv.down {
			// Direct transfer: one RDMA write per range.
			srv.H.Compute(p, srv.H.P.GMSendCost+srv.H.P.PIOWrite)
			srv.N.RDMAAsync(&nic.Op{
				Kind:   nic.Put,
				Target: qp.Peer().NIC(),
				VA:     h.BufVA + uint64(total),
				Len:    got,
				Notify: nic.Poll,
			})
		}
		total += got
		srv.Reads++
		srv.BytesRead += got
	}
	if firstRefVA == 0 {
		firstRefVA, firstRefLen, firstRefCap = srv.refFor(f, h.Offset)
	}
	resp := &wire.Header{
		Op: h.Op, XID: h.XID, Status: wire.StatusOK, Length: total,
		RefVA: firstRefVA, RefLen: firstRefLen, RefCap: firstRefCap,
	}
	if h.BufVA != 0 {
		srv.reply(p, qp, resp) // data already in flight ahead of the reply
		return
	}
	if srv.down {
		return // crash mid-read: the in-line reply is never transmitted
	}
	// In-line transfer: payload rides the reply (gather DMA, no copy).
	qp.Send(p, &vi.Msg{
		HeaderBytes:  resp.WireSize(),
		PayloadBytes: total,
		Header:       &msg{Hdr: resp},
		Payload:      fsim.BlockRef{File: f.ID, Off: h.Offset, Len: total},
		Span:         obs.Active(p),
	})
}

// write serves one write: pull the data by RDMA read from the advertised
// buffer, or accept it in-line; then update file state (§4.2.2 notes writes
// always need this server-side work — which is why ORDMA targets reads).
func (srv *Server) write(p *sim.Proc, qp *vi.QP, req *msg) {
	h := req.Hdr
	f, err := srv.FS.ByID(fsim.FileID(h.FH))
	if err != nil {
		srv.reply(p, qp, &wire.Header{Op: h.Op, XID: h.XID, Status: wire.StatusStale})
		return
	}
	n := h.Length
	if srv.down {
		return // crash between receive and execution: the write dies with the host
	}
	if h.BufVA != 0 && n > 0 {
		srv.H.Compute(p, srv.H.P.GMSendCost+srv.H.P.PIOWrite)
		res := qp.RDMA(p, nic.Get, h.BufVA, n, nil)
		if !res.OK() {
			srv.reply(p, qp, &wire.Header{Op: h.Op, XID: h.XID, Status: wire.StatusIO})
			return
		}
	}
	if len(req.Data) > 0 {
		f.WriteAt(req.Data, h.Offset)
	} else if h.Offset+n > f.Size() {
		f.Truncate(h.Offset + n)
	}
	f.SetMtime(int64(p.Now()))
	srv.H.Compute(p, srv.H.P.CacheInsert)
	var verifier uint64
	if !srv.down {
		// Written data enters the server buffer cache (write-behind to
		// disk) — unless the host died while the data was in flight.
		srv.Cache.Install(f, h.Offset, n)
		if srv.WB != nil {
			// Dirty tracking, stability and backpressure: a stable write
			// blocks here until destaged; an unstable one blocks only
			// at the dirty high-water mark.
			srv.WB.Write(p, f, h.Offset, n, h.Flags&wire.FlagStable != 0)
			verifier = srv.WB.Verifier()
		}
	}
	srv.Writes++
	srv.reply(p, qp, &wire.Header{
		Op: h.Op, XID: h.XID, Status: wire.StatusOK, Length: n, Verifier: verifier,
	})
}

// commit serves OpCommit: destage every dirty block of the range (the
// whole file when Length <= 0) and report the write verifier. Without
// write-behind, data was never volatile, so commit is a no-op carrying
// verifier zero.
func (srv *Server) commit(p *sim.Proc, qp *vi.QP, req *msg) {
	h := req.Hdr
	f, err := srv.FS.ByID(fsim.FileID(h.FH))
	if err != nil {
		srv.reply(p, qp, &wire.Header{Op: h.Op, XID: h.XID, Status: wire.StatusStale})
		return
	}
	if srv.down {
		return // crash between receive and execution: the commit dies with the host
	}
	var verifier uint64
	if srv.WB != nil {
		verifier = srv.WB.Commit(p, f, h.Offset, h.Length)
	}
	srv.reply(p, qp, &wire.Header{
		Op: h.Op, XID: h.XID, Status: wire.StatusOK, Verifier: verifier,
	})
}

// RemoteRefOf converts piggybacked reply fields into a directory entry.
func RemoteRefOf(h *wire.Header) *cache.RemoteRef {
	if h.RefVA == 0 {
		return nil
	}
	return &cache.RemoteRef{VA: h.RefVA, Len: h.RefLen, Cap: h.RefCap}
}
