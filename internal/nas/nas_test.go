package nas

import (
	"bytes"
	"errors"
	"testing"

	"danas/internal/host"
	"danas/internal/sim"
)

// memClient is a minimal in-memory nas.Client used to exercise the
// package's interface contract and the ReadData helper without standing
// up a cluster: reads are charged simulated time, content lives behind
// the ContentSource back-channel exactly as in the real clients.
type memClient struct {
	files  map[string]*memFile
	open   map[uint64]*memFile // live handles by FH
	nextFH uint64
	// perOp is the simulated cost charged per operation.
	perOp sim.Duration
	// failRead, when set, is returned by Read before any work.
	failRead error
}

type memFile struct {
	name string
	data []byte
}

func newMemClient() *memClient {
	return &memClient{
		files: map[string]*memFile{},
		open:  map[uint64]*memFile{},
		perOp: sim.Micros(10),
	}
}

func (m *memClient) Name() string { return "mem" }

func (m *memClient) Open(p *sim.Proc, name string) (*Handle, error) {
	p.Sleep(m.perOp)
	return m.openName(name)
}

func (m *memClient) openName(name string) (*Handle, error) {
	f, ok := m.files[name]
	if !ok {
		return nil, ErrNoEnt
	}
	m.nextFH++
	m.open[m.nextFH] = f
	return &Handle{FH: m.nextFH, Size: int64(len(f.data)), Name: name}, nil
}

func (m *memClient) Read(p *sim.Proc, h *Handle, off, n int64, bufID uint64) (int64, error) {
	p.Sleep(m.perOp)
	return m.read(h, off, n)
}

func (m *memClient) read(h *Handle, off, n int64) (int64, error) {
	if m.failRead != nil {
		return 0, m.failRead
	}
	f, ok := m.open[h.FH]
	if !ok {
		return 0, ErrStale
	}
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	if off+n > int64(len(f.data)) {
		n = int64(len(f.data)) - off
	}
	return n, nil
}

func (m *memClient) Write(p *sim.Proc, h *Handle, off, n int64, bufID uint64) (int64, error) {
	p.Sleep(m.perOp)
	return m.write(h, off, n)
}

func (m *memClient) write(h *Handle, off, n int64) (int64, error) {
	f, ok := m.open[h.FH]
	if !ok {
		return 0, ErrStale
	}
	if grow := off + n - int64(len(f.data)); grow > 0 {
		f.data = append(f.data, make([]byte, grow)...)
	}
	return n, nil
}

func (m *memClient) Getattr(p *sim.Proc, h *Handle) (int64, error) {
	p.Sleep(m.perOp)
	f, ok := m.open[h.FH]
	if !ok {
		return 0, ErrStale
	}
	return int64(len(f.data)), nil
}

func (m *memClient) Create(p *sim.Proc, name string) (*Handle, error) {
	p.Sleep(m.perOp)
	if _, ok := m.files[name]; ok {
		return nil, ErrExist
	}
	f := &memFile{name: name}
	m.files[name] = f
	m.nextFH++
	m.open[m.nextFH] = f
	return &Handle{FH: m.nextFH, Name: name}, nil
}

func (m *memClient) Remove(p *sim.Proc, name string) error {
	p.Sleep(m.perOp)
	if _, ok := m.files[name]; !ok {
		return ErrNoEnt
	}
	delete(m.files, name)
	return nil
}

func (m *memClient) Close(p *sim.Proc, h *Handle) error {
	p.Sleep(m.perOp)
	return m.close(h)
}

func (m *memClient) close(h *Handle) error {
	if _, ok := m.open[h.FH]; !ok {
		return ErrStale
	}
	delete(m.open, h.FH)
	return nil
}

func (m *memClient) WriteData(p *sim.Proc, h *Handle, off int64, data []byte) (int64, error) {
	n, err := m.Write(p, h, off, int64(len(data)), 0)
	if err != nil {
		return 0, err
	}
	f := m.open[h.FH]
	copy(f.data[off:off+n], data)
	return n, nil
}

func (m *memClient) Commit(p *sim.Proc, h *Handle, off, n int64) error {
	p.Sleep(m.perOp)
	return m.commit(h)
}

func (m *memClient) commit(h *Handle) error {
	if _, ok := m.open[h.FH]; !ok {
		return ErrStale
	}
	return nil
}

var _ Client = (*memClient)(nil)

// NewTask implements Client: an operation waits perOp on a timer event,
// where the blocking method's Sleep wakes (or sleeps, on a job carried
// by a process), then runs the same body.
func (m *memClient) NewTask() Task { return &memTask{m: m} }

// memTask is memClient's task.
type memTask struct {
	m      *memClient
	op     memOp
	name   string
	h      *Handle
	off, n int64
	got    int64
	hd     *Handle
	err    error
}

type memOp uint8

const (
	memOpen memOp = iota
	memClose
	memRead
	memWrite
	memCommit
)

func (t *memTask) Open(j *host.Job, name string) bool {
	t.name = name
	return t.start(j, memOpen, nil, 0, 0)
}

func (t *memTask) Close(j *host.Job, h *Handle) bool { return t.start(j, memClose, h, 0, 0) }

func (t *memTask) Read(j *host.Job, h *Handle, off, n int64, _ uint64) bool {
	return t.start(j, memRead, h, off, n)
}

func (t *memTask) Write(j *host.Job, h *Handle, off, n int64, _ uint64) bool {
	return t.start(j, memWrite, h, off, n)
}

func (t *memTask) Commit(j *host.Job, h *Handle, off, n int64) bool {
	return t.start(j, memCommit, h, off, n)
}

func (t *memTask) start(j *host.Job, op memOp, h *Handle, off, n int64) bool {
	t.op, t.h, t.off, t.n = op, h, off, n
	if j.P != nil {
		j.P.Sleep(t.m.perOp)
		return t.Step(j)
	}
	j.Sched().After(t.m.perOp, j.Step)
	return false
}

func (t *memTask) Step(*host.Job) bool {
	m := t.m
	t.got, t.hd, t.err = 0, nil, nil
	switch t.op {
	case memOpen:
		t.hd, t.err = m.openName(t.name)
	case memClose:
		t.err = m.close(t.h)
	case memRead:
		t.got, t.err = m.read(t.h, t.off, t.n)
	case memWrite:
		t.got, t.err = m.write(t.h, t.off, t.n)
	default:
		t.err = m.commit(t.h)
	}
	t.h = nil
	return true
}

func (t *memTask) Result() (int64, *Handle, error) { return t.got, t.hd, t.err }

// memSource materializes bytes by handle, the ContentSource side. When
// err is set it fails after materializing shortAfter bytes, modelling a
// source that loses its backing mid-copy.
type memSource struct {
	m          *memClient
	err        error
	shortAfter int
}

func (s *memSource) ReadAtFH(fh uint64, p []byte, off int64) (int, error) {
	if s.err != nil {
		f, ok := s.m.open[fh]
		if !ok {
			return 0, s.err
		}
		n := copy(p[:min(len(p), s.shortAfter)], f.data[off:])
		return n, s.err
	}
	f, ok := s.m.open[fh]
	if !ok {
		return 0, ErrStale
	}
	return copy(p, f.data[off:]), nil
}

// drive runs fn as a simulation process to completion.
func drive(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	s.Go("test", fn)
	s.Run()
}

func TestReadDataMaterializesContent(t *testing.T) {
	m := newMemClient()
	src := &memSource{m: m}
	drive(t, func(p *sim.Proc) {
		h, err := m.Create(p, "f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		want := []byte("direct-access network attached storage")
		if _, err := m.WriteData(p, h, 0, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		before := p.Now()
		buf := make([]byte, len(want))
		got, err := ReadData(p, m, src, h, 0, buf, 1)
		if err != nil {
			t.Fatalf("ReadData: %v", err)
		}
		if got != len(want) {
			t.Errorf("ReadData returned %d bytes, want %d", got, len(want))
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("content %q, want %q", buf, want)
		}
		// The transfer must have been charged simulated time: ReadData
		// times the wire transfer before materializing bytes.
		if p.Now().Sub(before) <= 0 {
			t.Error("ReadData advanced no simulated time; the read was not timed")
		}
	})
}

func TestReadDataShortReadAtEOF(t *testing.T) {
	m := newMemClient()
	src := &memSource{m: m}
	drive(t, func(p *sim.Proc) {
		h, _ := m.Create(p, "f")
		if _, err := m.WriteData(p, h, 0, []byte("0123456789")); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Ask for 8 bytes starting 4 before EOF: only 4 exist.
		buf := make([]byte, 8)
		got, err := ReadData(p, m, src, h, 6, buf, 1)
		if err != nil {
			t.Fatalf("ReadData: %v", err)
		}
		if got != 4 {
			t.Errorf("ReadData returned %d bytes, want 4 (short read at EOF)", got)
		}
		if !bytes.Equal(buf[:got], []byte("6789")) {
			t.Errorf("content %q, want %q", buf[:got], "6789")
		}
	})
}

func TestReadDataPropagatesErrors(t *testing.T) {
	m := newMemClient()
	src := &memSource{m: m}
	drive(t, func(p *sim.Proc) {
		h, _ := m.Create(p, "f")
		if _, err := m.WriteData(p, h, 0, make([]byte, 64)); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Timed-transfer failure surfaces before materialization.
		m.failRead = ErrIO
		if _, err := ReadData(p, m, src, h, 0, make([]byte, 16), 1); !errors.Is(err, ErrIO) {
			t.Errorf("ReadData with failing transfer = %v, want ErrIO", err)
		}
		m.failRead = nil
		// Materialization failure surfaces too.
		src.err = ErrStale
		if _, err := ReadData(p, m, src, h, 0, make([]byte, 16), 1); !errors.Is(err, ErrStale) {
			t.Errorf("ReadData with failing source = %v, want ErrStale", err)
		}
	})
}

// TestHandleLifecycle walks the full handle contract: open of a missing
// name, create, duplicate create, read-after-close, double close, and
// open-after-remove, checking the package's sentinel errors throughout.
func TestHandleLifecycle(t *testing.T) {
	m := newMemClient()
	drive(t, func(p *sim.Proc) {
		if _, err := m.Open(p, "ghost"); !errors.Is(err, ErrNoEnt) {
			t.Errorf("Open(missing) = %v, want ErrNoEnt", err)
		}
		h, err := m.Create(p, "f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := m.Create(p, "f"); !errors.Is(err, ErrExist) {
			t.Errorf("Create(existing) = %v, want ErrExist", err)
		}
		if _, err := m.WriteData(p, h, 0, []byte("abc")); err != nil {
			t.Fatalf("write: %v", err)
		}
		// A second, independent handle sees the current size.
		h2, err := m.Open(p, "f")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if size, err := m.Getattr(p, h2); err != nil || size != 3 {
			t.Errorf("Getattr = (%d, %v), want (3, nil)", size, err)
		}
		// Close invalidates only its own handle.
		if err := m.Close(p, h); err != nil {
			t.Fatalf("close: %v", err)
		}
		if _, err := m.Read(p, h, 0, 1, 1); !errors.Is(err, ErrStale) {
			t.Errorf("Read(closed handle) = %v, want ErrStale", err)
		}
		if err := m.Close(p, h); !errors.Is(err, ErrStale) {
			t.Errorf("double Close = %v, want ErrStale", err)
		}
		if n, err := m.Read(p, h2, 0, 3, 1); err != nil || n != 3 {
			t.Errorf("Read(live handle) = (%d, %v), want (3, nil)", n, err)
		}
		if err := m.Close(p, h2); err != nil {
			t.Fatalf("close h2: %v", err)
		}
		if err := m.Remove(p, "f"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if _, err := m.Open(p, "f"); !errors.Is(err, ErrNoEnt) {
			t.Errorf("Open(removed) = %v, want ErrNoEnt", err)
		}
		if err := m.Remove(p, "f"); !errors.Is(err, ErrNoEnt) {
			t.Errorf("Remove(missing) = %v, want ErrNoEnt", err)
		}
	})
}
