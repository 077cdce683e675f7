package nas

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"danas/internal/host"
	"danas/internal/sim"
)

// memDriver returns a driver over m's tasks.
func memDriver(m *memClient) *Driver[*memClient, *memTask] {
	d := NewDriver(m, func(m *memClient) *memTask { return &memTask{m: m} })
	return &d
}

// TestDriverMatchesBlockingMethods runs each operation, and its failing
// twin, once through the fake client's own blocking method and once
// through a driver over its task, each on a fresh client and scheduler:
// both must return the same outcome at the same instant.
func TestDriverMatchesBlockingMethods(t *testing.T) {
	type outcome struct {
		n   int64
		h   Handle
		err error
		at  sim.Time
	}
	cases := []struct {
		name string
		run  func(p *sim.Proc, c blocking, h *Handle) (int64, *Handle, error)
	}{
		{"open", func(p *sim.Proc, c blocking, _ *Handle) (int64, *Handle, error) {
			h, err := c.Open(p, "f")
			return 0, h, err
		}},
		{"open missing", func(p *sim.Proc, c blocking, _ *Handle) (int64, *Handle, error) {
			h, err := c.Open(p, "ghost")
			return 0, h, err
		}},
		{"close", func(p *sim.Proc, c blocking, h *Handle) (int64, *Handle, error) {
			return 0, nil, c.Close(p, h)
		}},
		{"close stale", func(p *sim.Proc, c blocking, _ *Handle) (int64, *Handle, error) {
			return 0, nil, c.Close(p, &Handle{FH: 99})
		}},
		{"read", func(p *sim.Proc, c blocking, h *Handle) (int64, *Handle, error) {
			n, err := c.Read(p, h, 40, 64, 1)
			return n, nil, err
		}},
		{"read stale", func(p *sim.Proc, c blocking, _ *Handle) (int64, *Handle, error) {
			n, err := c.Read(p, &Handle{FH: 99}, 0, 8, 1)
			return n, nil, err
		}},
		{"write", func(p *sim.Proc, c blocking, h *Handle) (int64, *Handle, error) {
			n, err := c.Write(p, h, 60, 16, 1)
			return n, nil, err
		}},
		{"commit", func(p *sim.Proc, c blocking, h *Handle) (int64, *Handle, error) {
			return 0, nil, c.Commit(p, h, 0, 0)
		}},
		{"commit stale", func(p *sim.Proc, c blocking, _ *Handle) (int64, *Handle, error) {
			return 0, nil, c.Commit(p, &Handle{FH: 99}, 0, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out [2]outcome
			for i := range out {
				m := newMemClient()
				var c blocking = m
				if i == 1 {
					c = memDriver(m)
				}
				drive(t, func(p *sim.Proc) {
					h, err := m.Create(p, "f")
					if err == nil {
						_, err = m.WriteData(p, h, 0, make([]byte, 64))
					}
					if err != nil {
						t.Fatalf("setup: %v", err)
					}
					n, hd, err := tc.run(p, c, h)
					out[i] = outcome{n: n, err: err, at: p.Now()}
					if hd != nil {
						out[i].h = *hd
					}
				})
			}
			if out[0] != out[1] {
				t.Errorf("blocking method %+v, driver %+v", out[0], out[1])
			}
		})
	}
}

// blocking is the part of Client a Driver implements.
type blocking interface {
	Open(p *sim.Proc, name string) (*Handle, error)
	Close(p *sim.Proc, h *Handle) error
	Read(p *sim.Proc, h *Handle, off, n int64, bufID uint64) (int64, error)
	Write(p *sim.Proc, h *Handle, off, n int64, bufID uint64) (int64, error)
	Commit(p *sim.Proc, h *Handle, off, n int64) error
}

// TestDriverCallAllocations pins a warm round of blocking calls through
// the driver at zero allocations: its records, with their jobs, are
// reused. The open and the close fail, so the fake allocates no handle.
func TestDriverCallAllocations(t *testing.T) {
	m := newMemClient()
	d := memDriver(m)
	s := sim.New()
	t.Cleanup(s.Close)
	tokens := sim.NewQueue[int](s, "tokens")
	s.Go("app", func(p *sim.Proc) {
		h, err := m.Create(p, "f")
		if err == nil {
			_, err = m.WriteData(p, h, 0, make([]byte, 4096))
		}
		if err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		stale := &Handle{FH: 99}
		for {
			tokens.Get(p)
			if _, err := d.Open(p, "ghost"); !errors.Is(err, ErrNoEnt) {
				t.Errorf("open of a missing name: %v", err)
			}
			if n, err := d.Read(p, h, 0, 4096, 1); n != 4096 || err != nil {
				t.Errorf("read (%d, %v)", n, err)
			}
			if n, err := d.Write(p, h, 0, 4096, 1); n != 4096 || err != nil {
				t.Errorf("write (%d, %v)", n, err)
			}
			if err := d.Commit(p, h, 0, 0); err != nil {
				t.Errorf("commit: %v", err)
			}
			if err := d.Close(p, stale); !errors.Is(err, ErrStale) {
				t.Errorf("close of a stale handle: %v", err)
			}
		}
	})
	round := func() { tokens.Put(0); s.Run() }
	for range 8 {
		round()
	}
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Errorf("a round of blocking calls allocates %.1f times, want 0", got)
	}
}

// reissueTask is memTask with a commit that, as the NFS and DAFS
// clients' does, runs on its job's process and re-issues a write
// through the blocking driver the task belongs to. Its Result notes a
// read from a record the driver already holds idle.
type reissueTask struct {
	memTask
	d        *Driver[*memClient, *reissueTask]
	body     func(p *sim.Proc)
	idleRead bool
}

func (t *reissueTask) Commit(j *host.Job, h *Handle, off, n int64) bool {
	t.op, t.h, t.off, t.n = memCommit, h, off, n
	t.got, t.hd, t.err = 0, nil, nil
	return j.Run("commit", t.body)
}

// commit is Commit's body: the re-issue must run on a record of its
// own, leaving the commit's request and outcome as they were.
func (t *reissueTask) commit(p *sim.Proc) {
	h, off, n := t.h, t.off, t.n
	got, err := t.d.Write(p, h, off, n, 0)
	switch {
	case err != nil:
		t.err = err
	case got != n:
		t.err = fmt.Errorf("re-issued %d bytes, want %d", got, n)
	case t.op != memCommit || t.h != h || t.got != 0:
		t.err = errors.New("the re-issue ran on the commit's record")
	}
	t.h = nil
}

func (t *reissueTask) Result() (int64, *Handle, error) {
	t.idleRead = t.idleRead || slices.ContainsFunc(t.d.idle, func(c *Carried[*reissueTask]) bool { return c.Task == t })
	return t.memTask.Result()
}

// TestDriverNestedCallTakesItsOwnRecord commits through a driver whose
// commit re-issues a write on the same driver, as a commit re-issues
// the writes a server crash lost: the write takes a record of its own,
// the commit's outcome survives it, and no outcome is read from an
// idle record.
func TestDriverNestedCallTakesItsOwnRecord(t *testing.T) {
	m := newMemClient()
	var d Driver[*memClient, *reissueTask]
	var tasks []*reissueTask
	d = NewDriver(m, func(m *memClient) *reissueTask {
		rt := &reissueTask{memTask: memTask{m: m}, d: &d}
		rt.body = rt.commit
		tasks = append(tasks, rt)
		return rt
	})
	drive(t, func(p *sim.Proc) {
		h, err := m.Create(p, "f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		for round := range 3 {
			if err := d.Commit(p, h, 0, 8); err != nil {
				t.Errorf("round %d: commit: %v", round, err)
			}
			if n, err := d.Read(p, h, 0, 16, 1); n != 8 || err != nil {
				t.Errorf("round %d: read of the re-issued bytes (%d, %v), want (8, nil)", round, n, err)
			}
		}
	})
	if len(tasks) != 2 {
		t.Errorf("the driver made %d records, want 2 (the commit's and the re-issue's)", len(tasks))
	}
	for i, rt := range tasks {
		if rt.idleRead {
			t.Errorf("record %d: an outcome was read after the record went idle", i)
		}
	}
}
