// Package nfs implements the paper's three RPC-based NAS systems over the
// UDP/IP stack: the standard NFS baseline (copies through the buffer
// cache), NFS pre-posting (RDDP-RPC: tagged pre-posted buffers with NIC
// header splitting), and NFS hybrid (RDDP-RDMA: buffer addresses advertised
// in the modified NFS wire protocol, data moved by server-initiated RDMA).
// One server serves all three client variants; the request tells it which
// data path to use, mirroring how the paper's modified FreeBSD server
// coexisted with standard clients.
package nfs

import (
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nic"
	"danas/internal/rpc"
	"danas/internal/sim"
	"danas/internal/udpip"
	"danas/internal/wb"
	"danas/internal/wire"
)

// Port is the conventional NFS service port.
const Port = 2049

// Server is the NFS server: an RPC service over the server file cache.
type Server struct {
	H     *host.Host
	FS    *fsim.FS
	Cache *fsim.ServerCache
	n     *nic.NIC
	// RPC is the underlying RPC service (exposed for failure injection
	// and DRC inspection).
	RPC *rpc.Server

	// WB, when set, is the shard's write-behind subsystem: writes pass
	// through it (dirty tracking, stability, backpressure) and replies
	// carry its write verifier. Nil keeps the legacy semantics — a write
	// is done once its data is in the buffer cache.
	WB *wb.Flusher

	// down marks the server host crashed: handlers already in flight
	// stop touching the cache and stop moving data (see SetDown).
	down bool

	Reads, Writes uint64
	BytesRead     int64
}

// NewServer starts an NFS server on the given stack with nWorkers nfsd
// workers (see rpc.Worker).
func NewServer(_ *sim.Scheduler, stack *udpip.Stack, fs *fsim.FS, cache *fsim.ServerCache, nWorkers int) *Server {
	srv := &Server{H: stack.Host(), FS: fs, Cache: cache, n: stack.NIC()}
	srv.RPC = rpc.NewServiceServer(stack, Port, nWorkers, func(w *rpc.Worker) rpc.Service {
		h := &handler{srv: srv, w: w}
		h.pulled = h.pullDone
		return h
	})
	return srv
}

// SetDown marks the server crashed (true) or restarted (false). A crash
// also loses the duplicate-request cache — kernel memory dies with the
// host — so post-restart retransmissions of pre-crash calls re-execute.
// Handlers in flight at crash time stop re-populating the (flushed)
// cache and stop transferring data, mirroring dafs.Server's guards.
func (srv *Server) SetDown(down bool) {
	srv.down = down
	srv.RPC.SetDown(down)
	if down {
		srv.RPC.ResetDRC()
	}
}

// handler is one nfsd worker's NFS request state, kept across the
// request's waits and reused by the next request.
type handler struct {
	srv      *Server
	w        *rpc.Worker
	stage    stage
	f        *fsim.File
	n        int64
	walk     fsim.Walk
	st       nic.Status       // the write pull's completion status
	verifier uint64           // a commit's verifier
	out      wire.Header      // the reply header, which the worker copies
	pulled   func(nic.Status) // h.pullDone, bound once
}

// stage is where a handler is in its request: the step to run when
// Serve is next called.
type stage uint8

const (
	opStart        stage = iota // dispatch: charge the NFS operation
	opMeta                      // lookup, getattr, create, remove
	opRead                      // find the file, walk its cache blocks
	opReadWalk                  // walking the cache blocks
	opReadPush                  // hybrid: push the data by RDMA
	opWrite                     // find the file, pull or copy the data
	opWritePull                 // hybrid: post the RDMA get
	opWritePulled               // the get has completed
	opWriteData                 // data in hand: update the file
	opWriteCache                // insert charged: into cache and write-behind
	opWriteStalled              // a write-behind stall has ended
	opCommit                    // destage the committed range
	opCommitted                 // the destage has ended
)

// Serve implements rpc.Service.
func (h *handler) Serve(w *rpc.Worker) bool {
	srv, hdr, j := h.srv, w.Req.Hdr, &w.Job
	for {
		switch h.stage {
		case opStart:
			switch hdr.Op {
			case wire.OpLookup, wire.OpOpen, wire.OpGetattr, wire.OpCreate, wire.OpRemove:
				h.stage = opMeta
			case wire.OpRead:
				h.stage = opRead
			case wire.OpWrite:
				h.stage = opWrite
			case wire.OpCommit:
				h.stage = opCommit
			default:
				return h.reply(wire.StatusIO)
			}
			if !j.Compute(srv.H.P.NFSServerOp) {
				return false
			}
		case opMeta:
			return h.meta(hdr)
		case opRead:
			f, err := srv.FS.ByID(fsim.FileID(hdr.FH))
			if err != nil {
				return h.reply(wire.StatusStale)
			}
			n := hdr.Length
			if hdr.Offset >= f.Size() {
				n = 0
			} else if hdr.Offset+n > f.Size() {
				n = f.Size() - hdr.Offset
			}
			h.f, h.n = f, n
			// Touch every cache block in the range (disk reads on misses).
			h.walk.Start(srv.Cache, f, hdr.Offset, n)
			h.stage = opReadWalk
		case opReadWalk:
			if !h.walk.Step(j, srv.down) {
				return false
			}
			srv.Reads++
			srv.BytesRead += h.n
			if hdr.BufVA == 0 || h.n == 0 || srv.down {
				// Standard / pre-posting: payload rides the RPC reply in-line.
				w.Reply = rpc.Reply{
					Hdr:          h.header(wire.Header{Op: hdr.Op, XID: hdr.XID, Status: wire.StatusOK, Length: h.n}),
					PayloadBytes: h.n,
					Ref:          fsim.BlockRef{File: h.f.ID, Off: hdr.Offset, Len: h.n},
				}
				return h.done()
			}
			// RDDP-RDMA (hybrid): push the data into the client's
			// advertised buffer with RDMA, then send a small reply. Both
			// traverse the same NIC pipeline, so the reply arrives after
			// the data.
			h.stage = opReadPush
			if !j.Compute(srv.H.P.GMSendCost + srv.H.P.PIOWrite) {
				return false
			}
		case opReadPush:
			srv.n.RDMAAsync(&nic.Op{
				Kind:   nic.Put,
				Target: w.Req.ClientNIC(),
				VA:     hdr.BufVA,
				Len:    h.n,
				Notify: nic.Poll,
			})
			w.Reply = rpc.Reply{Hdr: h.header(wire.Header{Op: hdr.Op, XID: hdr.XID, Status: wire.StatusOK, Length: h.n})}
			return h.done()
		case opWrite:
			f, err := srv.FS.ByID(fsim.FileID(hdr.FH))
			if err != nil {
				return h.reply(wire.StatusStale)
			}
			h.f, h.n = f, hdr.Length
			srv.Writes++
			if srv.down {
				// Crash between receive and execution: the write dies with
				// the host (the client's retransmission re-executes it
				// after the restart; the DRC was lost with the crash).
				return h.reply(wire.StatusIO)
			}
			switch {
			case hdr.BufVA != 0 && h.n > 0:
				// Pull the data from the client's buffer; the request waits
				// until it has arrived so the reply orders after placement.
				h.stage = opWritePull
				if !j.Compute(srv.H.P.GMSendCost + srv.H.P.PIOWrite) {
					return false
				}
			case h.n > 0:
				// In-line payload: copy mbufs into the buffer cache.
				h.stage = opWriteData
				if !j.Compute(srv.H.CacheCopyCost(h.n)) {
					return false
				}
			default:
				h.stage = opWriteData
			}
		case opWritePull:
			h.stage = opWritePulled
			srv.n.RDMAAsync(&nic.Op{
				Kind:   nic.Get,
				Target: w.Req.ClientNIC(),
				VA:     hdr.BufVA,
				Len:    h.n,
				Notify: nic.Intr,
				Done:   h.pulled,
			})
			return false
		case opWritePulled:
			if h.st != nic.StatusOK {
				return h.reply(wire.StatusIO)
			}
			h.stage = opWriteData
		case opWriteData:
			if ref, ok := w.Req.Payload.(writePayload); ok && len(ref.data) > 0 {
				h.f.WriteAt(ref.data, hdr.Offset)
			} else if hdr.Offset+h.n > h.f.Size() {
				// Size-only write: extend the file without materializing bytes.
				h.f.Truncate(hdr.Offset + h.n)
			}
			h.f.SetMtime(int64(srv.H.S.Now()))
			h.stage = opWriteCache
			if !j.Compute(srv.H.P.CacheInsert) {
				return false
			}
		case opWriteCache:
			if srv.down {
				// The host died while the data was in flight: it never
				// enters the buffer cache.
				return h.written(0)
			}
			srv.Cache.Install(h.f, hdr.Offset, h.n)
			if srv.WB == nil {
				return h.written(0)
			}
			// Dirty tracking, stability and backpressure: a stable write
			// blocks until destaged; an unstable one blocks only at the
			// dirty high-water mark.
			stable := hdr.Flags&wire.FlagStable != 0
			if srv.WB.Write(h.f, hdr.Offset, h.n, stable) {
				h.stage = opWriteStalled
				f, off, n := h.f, hdr.Offset, h.n
				j.Block("nfsd-wb", func(p *sim.Proc) { srv.WB.Stall(p, f, off, n, stable) })
				return false
			}
			return h.written(srv.WB.Verifier())
		case opWriteStalled:
			return h.written(srv.WB.Verifier())
		case opCommit:
			// Destage every dirty block of the range (the whole file when
			// Length <= 0). Without write-behind, data was never volatile,
			// so commit is a no-op carrying verifier zero.
			f, err := srv.FS.ByID(fsim.FileID(hdr.FH))
			if err != nil {
				return h.reply(wire.StatusStale)
			}
			h.verifier = 0
			h.stage = opCommitted
			if srv.WB != nil && !srv.down {
				off, n := hdr.Offset, hdr.Length
				j.Block("nfsd-commit", func(p *sim.Proc) { h.verifier = srv.WB.Commit(p, f, off, n) })
				return false
			}
		case opCommitted:
			if srv.down {
				return h.reply(wire.StatusIO)
			}
			w.Reply = rpc.Reply{Hdr: h.header(wire.Header{Op: hdr.Op, XID: hdr.XID, Status: wire.StatusOK, Verifier: h.verifier})}
			return h.done()
		}
	}
}

// meta serves the namespace and attribute operations, their NFS
// operation charged.
func (h *handler) meta(hdr *wire.Header) bool {
	fs := h.srv.FS
	switch hdr.Op {
	case wire.OpGetattr:
		f, err := fs.ByID(fsim.FileID(hdr.FH))
		if err != nil {
			return h.reply(wire.StatusStale)
		}
		h.w.Reply = rpc.Reply{Hdr: h.header(wire.Header{Op: hdr.Op, XID: hdr.XID, Status: wire.StatusOK, FH: hdr.FH, Length: f.Size()})}
	case wire.OpCreate:
		f, err := fs.Create(hdr.Name, 0)
		if err != nil {
			return h.reply(wire.StatusExist)
		}
		h.w.Reply = rpc.Reply{Hdr: h.header(wire.Header{Op: hdr.Op, XID: hdr.XID, Status: wire.StatusOK, FH: uint64(f.ID)})}
	case wire.OpRemove:
		if err := fs.Remove(hdr.Name); err != nil {
			return h.reply(wire.StatusNoEnt)
		}
		return h.reply(wire.StatusOK)
	default: // OpLookup, OpOpen
		f, err := fs.Lookup(hdr.Name)
		if err != nil {
			return h.reply(wire.StatusNoEnt)
		}
		h.w.Reply = rpc.Reply{Hdr: h.header(wire.Header{Op: hdr.Op, XID: hdr.XID, Status: wire.StatusOK, FH: uint64(f.ID), Length: f.Size()})}
	}
	return h.done()
}

// pullDone is the write pull's completion: the request resumes through
// the one same-instant event a signal fired here would post for a
// waiting process.
func (h *handler) pullDone(st nic.Status) {
	h.st = st
	h.srv.H.S.After(0, h.w.Job.Step)
}

// header sets the reply header, in the handler's own storage: the
// worker copies it when the request is done.
func (h *handler) header(hdr wire.Header) *wire.Header {
	h.out = hdr
	return &h.out
}

// written replies to a write that is in the cache, carrying verifier.
func (h *handler) written(verifier uint64) bool {
	hdr := h.w.Req.Hdr
	h.w.Reply = rpc.Reply{Hdr: h.header(wire.Header{Op: hdr.Op, XID: hdr.XID, Status: wire.StatusOK, Length: h.n, Verifier: verifier})}
	return h.done()
}

// reply answers the request with a bare status.
func (h *handler) reply(st uint32) bool {
	hdr := h.w.Req.Hdr
	h.w.Reply = rpc.Reply{Hdr: h.header(wire.Header{Op: hdr.Op, XID: hdr.XID, Status: st})}
	return h.done()
}

// done ends the request, its reply set, and readies the next.
func (h *handler) done() bool {
	h.stage, h.f = opStart, nil
	return true
}

// writePayload optionally carries real bytes for writes that must be
// durable in content (the database workloads verify what they read back).
type writePayload struct {
	data []byte
}
