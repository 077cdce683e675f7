package fsd

import (
	"reflect"
	"testing"

	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/sim"
	"danas/internal/wb"
	"danas/internal/wire"
)

// newCore builds a file service over a fresh scheduler, host, disk and
// cache, with write-behind when wbCfg is non-nil.
func newCore(t *testing.T, wbCfg *wb.Config) (*sim.Scheduler, *Core) {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	p := host.Default()
	fs := fsim.NewFS()
	disk := fsim.NewDisk(s, "disk", p.DiskSeek, p.DiskBW)
	c := &Core{H: host.New(s, "server", p), FS: fs, Cache: fsim.NewServerCache(fs, disk, 4096, 64)}
	if wbCfg != nil {
		c.WB = wb.NewFlusher(s, "server", c.Cache, disk, *wbCfg)
	}
	return s, c
}

// Meta answers every namespace, attribute and session operation with
// the exact status and reply fields, for a name present and absent (a
// live and a stale handle for getattr).
func TestMetaTable(t *testing.T) {
	const size = 12345
	cases := []struct {
		name    string
		op      wire.Op
		present bool
		status  uint32
		fh      bool // the reply carries the file's handle
		length  bool // the reply carries the file's size
		exists  bool // the name exists afterwards
	}{
		{"lookup present", wire.OpLookup, true, wire.StatusOK, true, true, true},
		{"lookup absent", wire.OpLookup, false, wire.StatusNoEnt, false, false, false},
		{"open present", wire.OpOpen, true, wire.StatusOK, true, true, true},
		{"open absent", wire.OpOpen, false, wire.StatusNoEnt, false, false, false},
		{"getattr live", wire.OpGetattr, true, wire.StatusOK, true, true, true},
		{"getattr stale", wire.OpGetattr, false, wire.StatusStale, false, false, false},
		{"create present", wire.OpCreate, true, wire.StatusExist, false, false, true},
		{"create absent", wire.OpCreate, false, wire.StatusOK, true, false, true},
		{"remove present", wire.OpRemove, true, wire.StatusOK, false, false, false},
		{"remove absent", wire.OpRemove, false, wire.StatusNoEnt, false, false, false},
		{"close", wire.OpClose, true, wire.StatusOK, false, false, true},
		{"mount", wire.OpMount, false, wire.StatusOK, false, false, false},
		{"read", wire.OpRead, true, wire.StatusIO, false, false, true},
		{"write", wire.OpWrite, true, wire.StatusIO, false, false, true},
		{"commit", wire.OpCommit, true, wire.StatusIO, false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := newCore(t, nil)
			// A decoy file keeps a stale handle distinct from any live one.
			if _, err := c.FS.Create("decoy", 1); err != nil {
				t.Fatal(err)
			}
			req := wire.Header{Op: tc.op, XID: 77, Name: "f", FH: 999}
			if tc.present {
				f, err := c.FS.Create("f", size)
				if err != nil {
					t.Fatal(err)
				}
				req.FH = uint64(f.ID)
			}
			got := c.Meta(&req)
			f, err := c.FS.Lookup("f")
			if (err == nil) != tc.exists {
				t.Fatalf("name exists after %v: %v, want %v", tc.op, err == nil, tc.exists)
			}
			want := wire.Header{Op: tc.op, XID: 77, Status: tc.status}
			if tc.fh {
				want.FH = uint64(f.ID)
			}
			if tc.length {
				want.Length = f.Size()
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Meta(%v) = %+v, want %+v", tc.op, got, want)
			}
		})
	}
}

// ReadLen clamps a read to the end of the file.
func TestReadLen(t *testing.T) {
	fs := fsim.NewFS()
	f, _ := fs.Create("f", 100)
	for _, tc := range []struct{ off, n, want int64 }{
		{0, 50, 50}, {60, 50, 40}, {100, 10, 0}, {200, 10, 0}, {0, 100, 100},
	} {
		if got := ReadLen(f, tc.off, tc.n); got != tc.want {
			t.Errorf("ReadLen(off %d, n %d) = %d, want %d", tc.off, tc.n, got, tc.want)
		}
	}
}

// The write admission installs the data unless the host crashed while
// it was in flight, stalls exactly when write-behind says so (a stable
// write always, an unstable one at the high-water mark), and replies
// with the write verifier in force, or zero without write-behind or
// after a crash.
func TestWriteAdmissionTable(t *testing.T) {
	roomy := &wb.Config{HighWater: 128, LowWater: 32, MaxBatch: 16}
	tight := &wb.Config{HighWater: 1, LowWater: 0, MaxBatch: 16}
	cases := []struct {
		name      string
		stable    bool
		wb        *wb.Config
		down      bool
		installed bool
		stalled   bool
		verifier  uint64
	}{
		{"unstable, no write-behind", false, nil, false, true, false, 0},
		{"stable, no write-behind", true, nil, false, true, false, 0},
		{"unstable, write-behind", false, roomy, false, true, false, 2},
		{"stable, write-behind", true, roomy, false, true, true, 2},
		{"unstable at high water", false, tight, false, true, true, 2},
		{"unstable, no write-behind, crashed", false, nil, true, false, false, 0},
		{"stable, no write-behind, crashed", true, nil, true, false, false, 0},
		{"unstable, write-behind, crashed", false, roomy, true, false, false, 0},
		{"stable, write-behind, crashed", true, roomy, true, false, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, c := newCore(t, tc.wb)
			if c.WB != nil {
				c.WB.Crash() // roll the verifier: the reply must carry the one in force
			}
			f, _ := c.FS.Create("f", 0)
			hdr := wire.Header{Op: wire.OpWrite, FH: uint64(f.ID), Offset: 4096, Length: 8192}
			if tc.stable {
				hdr.Flags = wire.FlagStable
			}
			var w Write
			w.Init(c, "fsd-wb")
			j := &host.Job{H: c.H}
			var verifier uint64
			done := false
			j.Step = func() {
				j.Resume()
				// A stall that runs ahead in place finishes the admission
				// inside Block, before the outer Step returns not done.
				if v, ok := w.Step(j); ok {
					verifier, done = v, true
				}
			}
			procs := s.Procs()
			s.After(0, func() {
				w.Start(f, &hdr, nil)
				// The host crashes after the data arrived, before it
				// enters the cache.
				c.SetDown(tc.down)
				j.Step()
			})
			s.Run()
			if !done {
				t.Fatal("write admission never finished")
			}
			if f.Size() != 4096+8192 || c.Writes != 1 {
				t.Fatalf("size %d, writes %d: the write must apply and count at Start", f.Size(), c.Writes)
			}
			if installed := c.Cache.Len() > 0; installed != tc.installed {
				t.Errorf("installed %v, want %v", installed, tc.installed)
			}
			if stalled := s.Procs() > procs; stalled != tc.stalled {
				t.Errorf("stalled %v, want %v", stalled, tc.stalled)
			}
			if verifier != tc.verifier {
				t.Errorf("verifier %d, want %d", verifier, tc.verifier)
			}
			if now := sim.Duration(s.Now()); now < c.H.P.CacheInsert {
				t.Errorf("admission finished at %v, before its CacheInsert charge", now)
			}
		})
	}
}

// Commit destages through write-behind and returns its verifier, or
// returns zero at once without it; CommitBlocks says which.
func TestCommit(t *testing.T) {
	for _, withWB := range []bool{false, true} {
		var cfg *wb.Config
		if withWB {
			cfg = &wb.Config{HighWater: 128, LowWater: 32, MaxBatch: 16}
		}
		s, c := newCore(t, cfg)
		f, _ := c.FS.Create("f", 8192)
		if c.CommitBlocks() != withWB {
			t.Fatalf("write-behind %v: CommitBlocks %v", withWB, c.CommitBlocks())
		}
		var verifier uint64
		s.Go("commit", func(p *sim.Proc) { verifier = c.Commit(p, f, 0, 0) })
		s.Run()
		want := uint64(0)
		if withWB {
			want = 1
		}
		if verifier != want {
			t.Fatalf("write-behind %v: verifier %d, want %d", withWB, verifier, want)
		}
		c.SetDown(true)
		if c.CommitBlocks() {
			t.Fatalf("write-behind %v: a crashed host's commit must not block", withWB)
		}
	}
}
