// Package fsd is the file service both NAS servers front, as the paper's
// NFS and DAFS servers both fronted one kernel buffer cache: the
// namespace and attribute operations, the read-size clamp, write
// admission into the buffer cache and write-behind, and commit.
// nfs.Server and dafs.Server each embed a Core over the shard's file
// system, cache and write-behind ledger, and keep only their transport
// and their protocol's costs.
package fsd

import (
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/sim"
	"danas/internal/wb"
	"danas/internal/wire"
)

// Core is one server's file service state and rules.
type Core struct {
	H     *host.Host
	FS    *fsim.FS
	Cache *fsim.ServerCache

	// WB, when set, is the shard's write-behind subsystem: writes pass
	// through it (dirty tracking, stability, backpressure) and replies
	// carry its write verifier. Nil keeps the legacy semantics — a write
	// is done once its data is in the buffer cache.
	WB *wb.Flusher

	// down marks the server host crashed: requests already in flight
	// stop touching the cache and stop moving data (see SetDown).
	down bool

	// Reads counts the read requests (DAFS: read ranges) served and
	// BytesRead their bytes; Writes counts the writes admitted.
	Reads, Writes uint64
	BytesRead     int64
}

// SetDown marks the server host crashed (true) or restarted (false).
func (c *Core) SetDown(down bool) { c.down = down }

// Down reports whether the server host is crashed.
func (c *Core) Down() bool { return c.down }

// File resolves a file handle, or returns nil for a stale one.
func (c *Core) File(fh uint64) *fsim.File {
	f, err := c.FS.ByID(fsim.FileID(fh))
	if err != nil {
		return nil
	}
	return f
}

// Meta serves a namespace, attribute or session request (lookup, open,
// getattr, create, remove, close, mount) and returns its reply header.
// A name that is missing answers StatusNoEnt, an existing one on create
// StatusExist, a stale handle StatusStale, and any other operation
// StatusIO.
func (c *Core) Meta(h *wire.Header) wire.Header {
	r := wire.Header{Op: h.Op, XID: h.XID, Status: wire.StatusOK}
	switch h.Op {
	case wire.OpLookup, wire.OpOpen:
		f, err := c.FS.Lookup(h.Name)
		if err != nil {
			r.Status = wire.StatusNoEnt
			break
		}
		r.FH, r.Length = uint64(f.ID), f.Size()
	case wire.OpGetattr:
		f := c.File(h.FH)
		if f == nil {
			r.Status = wire.StatusStale
			break
		}
		r.FH, r.Length = h.FH, f.Size()
	case wire.OpCreate:
		f, err := c.FS.Create(h.Name, 0)
		if err != nil {
			r.Status = wire.StatusExist
			break
		}
		r.FH = uint64(f.ID)
	case wire.OpRemove:
		if c.FS.Remove(h.Name) != nil {
			r.Status = wire.StatusNoEnt
		}
	case wire.OpClose, wire.OpMount:
	default:
		r.Status = wire.StatusIO
	}
	return r
}

// ReadLen clamps a read of n bytes at off to the end of f.
func ReadLen(f *fsim.File, off, n int64) int64 {
	if off >= f.Size() {
		return 0
	}
	if off+n > f.Size() {
		return f.Size() - off
	}
	return n
}

// CommitBlocks reports whether a commit must block to destage: the
// host is up and write-behind is on. Otherwise Commit returns at once.
func (c *Core) CommitBlocks() bool { return c.WB != nil && !c.down }

// Commit destages every dirty block of f in [off, off+n) (the whole
// file when n <= 0) on p and returns the write verifier. Without
// write-behind, data was never volatile, so commit is a no-op carrying
// verifier zero.
func (c *Core) Commit(p *sim.Proc, f *fsim.File, off, n int64) uint64 {
	if c.WB == nil {
		return 0
	}
	return c.WB.Commit(p, f, off, n)
}

// Write admits one write into the file service for a request served by
// callbacks (see host.Job), the steps a server's write handler runs once
// the data is in hand: a CacheInsert charge, then, unless the host has
// crashed meanwhile, the blocks enter the buffer cache and the write
// passes through write-behind, blocking in its stall when write-behind
// says so. A server keeps one per request context and reuses it.
type Write struct {
	c      *Core
	name   string // the stall process's name
	f      *fsim.File
	off, n int64
	stable bool
	stage  writeStage
	stall  func(p *sim.Proc) // w.runStall, bound at the first stall
}

type writeStage uint8

const (
	writeInsert  writeStage = iota // charge the cache insert
	writeInstall                   // insert charged: into cache and write-behind
	writeStalled                   // a write-behind stall has ended
)

// Init binds w to c once; name names the process a stall blocks on.
func (w *Write) Init(c *Core, name string) { w.c, w.name = c, name }

// Start begins admitting the write h describes to f, applying its bytes
// now: data, or, for a size-only write (data empty), an extension of f
// to the write's end without materializing bytes.
func (w *Write) Start(f *fsim.File, h *wire.Header, data []byte) {
	if len(data) > 0 {
		f.WriteAt(data, h.Offset)
	} else if h.Offset+h.Length > f.Size() {
		f.Truncate(h.Offset + h.Length)
	}
	f.SetMtime(int64(w.c.H.S.Now()))
	w.c.Writes++
	w.f, w.off, w.n = f, h.Offset, h.Length
	w.stable = h.Flags&wire.FlagStable != 0
	w.stage = writeInsert
}

// Step advances the admission for j and reports done with the write
// verifier the reply carries (zero without write-behind, or when the
// host died while the data was in flight). Otherwise j waits, on a
// charge or a stall, and j.Step must call Step again.
func (w *Write) Step(j *host.Job) (verifier uint64, done bool) {
	c := w.c
	for {
		switch w.stage {
		case writeInsert:
			w.stage = writeInstall
			if !j.Compute(c.H.P.CacheInsert) {
				return 0, false
			}
		case writeInstall:
			if c.down {
				// The host died while the data was in flight: it never
				// enters the buffer cache.
				return w.done(0)
			}
			c.Cache.Install(w.f, w.off, w.n)
			if c.WB == nil {
				return w.done(0)
			}
			// Dirty tracking, stability and backpressure: a stable write
			// blocks until destaged; an unstable one blocks only at the
			// dirty high-water mark.
			if c.WB.Write(w.f, w.off, w.n, w.stable) {
				w.stage = writeStalled
				if w.stall == nil {
					w.stall = w.runStall
				}
				j.Block(w.name, w.stall)
				return 0, false
			}
			return w.done(c.WB.Verifier())
		case writeStalled:
			return w.done(c.WB.Verifier())
		}
	}
}

// runStall is the body of the process a stall blocks on. Block runs it
// in place, so it reads the write before the request can move on.
func (w *Write) runStall(p *sim.Proc) { w.c.WB.Stall(p, w.f, w.off, w.n, w.stable) }

// done ends the admission, dropping the file.
func (w *Write) done(verifier uint64) (uint64, bool) {
	w.f = nil
	return verifier, true
}
