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
	"danas/internal/fsd"
	"danas/internal/fsim"
	"danas/internal/nic"
	"danas/internal/rpc"
	"danas/internal/sim"
	"danas/internal/udpip"
	"danas/internal/wire"
)

// Port is the conventional NFS service port.
const Port = 2049

// Server is the NFS server: an RPC service over the file service.
type Server struct {
	fsd.Core
	n *nic.NIC
	// RPC is the underlying RPC service (exposed for failure injection
	// and DRC inspection).
	RPC *rpc.Server
}

// NewServer starts an NFS server on the given stack with nWorkers nfsd
// workers (see rpc.Worker).
func NewServer(_ *sim.Scheduler, stack *udpip.Stack, fs *fsim.FS, cache *fsim.ServerCache, nWorkers int) *Server {
	srv := &Server{Core: fsd.Core{H: stack.Host(), FS: fs, Cache: cache}, n: stack.NIC()}
	srv.RPC = rpc.NewServiceServer(stack, Port, nWorkers, func(w *rpc.Worker) rpc.Service {
		h := &handler{srv: srv, w: w}
		h.pulled = h.pullDone
		h.commit = h.runCommit
		h.write.Init(&srv.Core, "nfsd-wb")
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
	srv.Core.SetDown(down)
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
	write    fsd.Write
	st       nic.Status        // the write pull's completion status
	verifier uint64            // a commit's verifier
	out      wire.Header       // the reply header, which the worker copies
	pulled   func(nic.Status)  // h.pullDone, bound once
	commit   func(p *sim.Proc) // h.runCommit, bound once
}

// stage is where a handler is in its request: the step to run when
// Serve is next called.
type stage uint8

const (
	opStart       stage = iota // dispatch: charge the NFS operation
	opMeta                     // lookup, getattr, create, remove
	opRead                     // find the file, walk its cache blocks
	opReadWalk                 // walking the cache blocks
	opReadPush                 // hybrid: push the data by RDMA
	opWrite                    // find the file, pull or copy the data
	opWritePull                // hybrid: post the RDMA get
	opWritePulled              // the get has completed
	opWriteData                // data in hand: start its admission
	opWriteAdmit               // admitting the write (fsd.Write)
	opCommit                   // destage the committed range
	opCommitted                // the destage has ended
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
			w.Reply = rpc.Reply{Hdr: h.header(srv.Meta(hdr))}
			return h.done()
		case opRead:
			f := srv.File(hdr.FH)
			if f == nil {
				return h.reply(wire.StatusStale)
			}
			h.f, h.n = f, fsd.ReadLen(f, hdr.Offset, hdr.Length)
			// Touch every cache block in the range (disk reads on misses).
			h.walk.Start(srv.Cache, f, hdr.Offset, h.n)
			h.stage = opReadWalk
		case opReadWalk:
			if !h.walk.Step(j, srv.Down()) {
				return false
			}
			srv.Reads++
			srv.BytesRead += h.n
			if hdr.BufVA == 0 || h.n == 0 || srv.Down() {
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
			srv.n.RDMAAsync(nic.Op{
				Kind:   nic.Put,
				Target: w.Req.ClientNIC(),
				VA:     hdr.BufVA,
				Len:    h.n,
				Notify: nic.Poll,
			})
			w.Reply = rpc.Reply{Hdr: h.header(wire.Header{Op: hdr.Op, XID: hdr.XID, Status: wire.StatusOK, Length: h.n})}
			return h.done()
		case opWrite:
			f := srv.File(hdr.FH)
			if f == nil {
				return h.reply(wire.StatusStale)
			}
			h.f, h.n = f, hdr.Length
			if srv.Down() {
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
			srv.n.RDMAAsync(nic.Op{
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
			var data []byte
			if ref, ok := w.Req.Payload.(writePayload); ok {
				data = ref.data
			}
			h.write.Start(h.f, hdr, data)
			h.stage = opWriteAdmit
		case opWriteAdmit:
			verifier, done := h.write.Step(j)
			if !done {
				return false
			}
			return h.written(verifier)
		case opCommit:
			// Destage every dirty block of the range (the whole file when
			// Length <= 0).
			f := srv.File(hdr.FH)
			if f == nil {
				return h.reply(wire.StatusStale)
			}
			h.f, h.verifier, h.stage = f, 0, opCommitted
			if srv.CommitBlocks() {
				j.Block("nfsd-commit", h.commit)
				return false
			}
		case opCommitted:
			if srv.Down() {
				return h.reply(wire.StatusIO)
			}
			w.Reply = rpc.Reply{Hdr: h.header(wire.Header{Op: hdr.Op, XID: hdr.XID, Status: wire.StatusOK, Verifier: h.verifier})}
			return h.done()
		}
	}
}

// pullDone is the write pull's completion: the request resumes through
// the one same-instant event a signal fired here would post for a
// waiting process.
func (h *handler) pullDone(st nic.Status) {
	h.st = st
	h.srv.H.S.After(0, h.w.Job.Step)
}

// runCommit is the body of the process a commit blocks on.
func (h *handler) runCommit(p *sim.Proc) {
	hdr := h.w.Req.Hdr
	h.verifier = h.srv.Commit(p, h.f, hdr.Offset, hdr.Length)
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
