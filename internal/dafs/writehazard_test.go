package dafs

import (
	"testing"

	"danas/internal/nic"
	"danas/internal/sim"
)

// TestWriteToExportedBlockRefreshesExport is the stale-export write
// hazard regression (the write-path counterpart of the crash
// invalidation in failure_test.go): a server-side write landing on a
// block with a live TPT/ORDMA export must leave the export describing
// exactly the post-write block, so a client's subsequent direct read can
// never cover pre-write state.
//
//   - A same-extent overwrite updates the exported memory in place: the
//     segment stays valid (it maps the block, whose bytes are now the
//     new ones), and outstanding references keep working.
//   - An extending write grows the EOF block past the exported length: a
//     direct read through the old reference would cover only the
//     pre-write extent, so the export is invalidated and reissued at the
//     new length — the old reference faults at the NIC and the client
//     falls back to RPC, collecting a fresh one.
func TestWriteToExportedBlockRefreshesExport(t *testing.T) {
	const bs = 16 * 1024
	r := newRig(t, true, 1<<16)
	// A file whose tail block is short: 3 full blocks plus a 4 KB tail.
	size := int64(3*bs + 4096)
	f, _ := r.fs.Create("data", size)
	r.sc.Warm(f)
	c := r.newClient(t, nic.Poll, Direct)
	r.s.Go("app", func(p *sim.Proc) {
		h, err := c.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}

		// Same-extent overwrite of block 0: the export must survive and
		// keep serving direct reads.
		b0, ok := r.sc.Peek(f, 0)
		if !ok {
			t.Error("block 0 not resident")
			return
		}
		seg0 := b0.Export.(*nic.Segment)
		if _, err := c.Write(p, h, 0, bs, 1); err != nil {
			t.Errorf("overwrite: %v", err)
			return
		}
		if !seg0.Valid() || b0.Export != seg0 {
			t.Error("same-extent overwrite invalidated the export (in-place update expected)")
		}
		if res := c.QP().RDMA(p, nic.Get, seg0.VA, seg0.Len, seg0.Cap); !res.OK() {
			t.Errorf("direct read after same-extent overwrite faulted: %v", res.Status)
		}

		// Extending write: grow the tail block from 4 KB to a full
		// block. The pre-write export describes 4 KB of a block that is
		// now 16 KB — a direct read through it would serve pre-write
		// state for the rest — so it must fault, and the block must
		// carry a fresh full-length export.
		tail, ok := r.sc.Peek(f, 3*bs)
		if !ok {
			t.Error("tail block not resident")
			return
		}
		stale := tail.Export.(*nic.Segment)
		if stale.Len != 4096 {
			t.Errorf("setup: tail export %d bytes, want 4096", stale.Len)
		}
		if _, err := c.Write(p, h, 3*bs, bs, 1); err != nil {
			t.Errorf("extending write: %v", err)
			return
		}
		if stale.Valid() {
			t.Error("extending write left the short export live: a direct read through it returns pre-write state")
		}
		if res := c.QP().RDMA(p, nic.Get, stale.VA, stale.Len, stale.Cap); res.OK() {
			t.Error("direct read through the stale reference succeeded, want NIC fault")
		}
		fresh, ok := tail.Export.(*nic.Segment)
		if !ok || !fresh.Valid() || fresh.Len != bs {
			t.Errorf("tail block export after extending write = %+v, want a valid %d-byte segment", tail.Export, bs)
		}
		// The recovery path of §4.2(c): the faulting client re-reads
		// over RPC and collects a reference describing the new extent.
		n, ref, err := c.ReadDirect(p, h, 3*bs, bs, 2)
		if err != nil || n != bs {
			t.Errorf("fallback read: n=%d err=%v", n, err)
			return
		}
		if ref.VA == 0 || ref.Len != bs || ref.VA != fresh.VA {
			t.Errorf("fallback read piggybacked ref %+v, want the fresh %d-byte export at %#x", ref, bs, fresh.VA)
		}
	})
	r.s.Run()
}
