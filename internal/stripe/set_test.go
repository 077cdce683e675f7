package stripe

import (
	"errors"
	"testing"

	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/sim"
)

// fakeCopy is one replica copy's session. A down copy answers every
// call with nas.ErrTimeout after a retry budget's worth of waiting; a
// live one answers after delay. Unstable writes are tracked under
// verifier 1, as a write-behind server would accept them.
type fakeCopy struct {
	down      bool
	delay     sim.Duration
	failReiss bool // stable writes (failover re-issues) fail

	reads, writes int
	stable        []nas.WriteRange
	nas.CommitTracker
}

const copyTimeout = 10 * sim.Millisecond

func (f *fakeCopy) answer(p *sim.Proc) error {
	if f.down {
		p.Sleep(copyTimeout)
		return nas.ErrTimeout
	}
	p.Sleep(f.delay)
	return nil
}

func (f *fakeCopy) Name() string { return "copy" }
func (f *fakeCopy) Open(p *sim.Proc, name string) (*nas.Handle, error) {
	return &nas.Handle{FH: 1, Name: name}, f.answer(p)
}
func (f *fakeCopy) Create(p *sim.Proc, name string) (*nas.Handle, error) { return f.Open(p, name) }
func (f *fakeCopy) Getattr(p *sim.Proc, h *nas.Handle) (int64, error)    { return 0, f.answer(p) }
func (f *fakeCopy) Remove(p *sim.Proc, name string) error                { return f.answer(p) }
func (f *fakeCopy) Close(p *sim.Proc, h *nas.Handle) error               { return f.answer(p) }
func (f *fakeCopy) Commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	return f.answer(p)
}
func (f *fakeCopy) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	if err := f.answer(p); err != nil {
		return 0, err
	}
	f.reads++
	return n, nil
}
func (f *fakeCopy) Write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	if err := f.answer(p); err != nil {
		return 0, err
	}
	f.writes++
	f.NoteUnstable(h.FH, off, n, 1)
	return n, nil
}
func (f *fakeCopy) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	return f.Write(p, h, off, int64(len(data)), 0)
}
func (f *fakeCopy) WriteStable(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	if err := f.answer(p); err != nil {
		return 0, err
	}
	if f.failReiss {
		return 0, nas.ErrIO
	}
	f.stable = append(f.stable, nas.WriteRange{Off: off, N: n})
	return n, nil
}

// NewTask returns the copy's task, which runs reads only: a Group
// runs its other operations on its copies' blocking methods. A read
// answers as Read does, waiting on a timer event where Read sleeps (or
// sleeping, on a job carried by a process).
func (f *fakeCopy) NewTask() nas.Task { return &copyTask{f: f} }

type copyTask struct {
	f   *fakeCopy
	n   int64
	err error
}

func (t *copyTask) Open(*host.Job, string) bool { panic("fakeCopy: only reads run as tasks") }

func (t *copyTask) Close(*host.Job, *nas.Handle) bool { panic("fakeCopy: only reads run as tasks") }

func (t *copyTask) Write(*host.Job, *nas.Handle, int64, int64, uint64) bool {
	panic("fakeCopy: only reads run as tasks")
}

func (t *copyTask) Commit(*host.Job, *nas.Handle, int64, int64) bool {
	panic("fakeCopy: only reads run as tasks")
}

func (t *copyTask) Read(j *host.Job, _ *nas.Handle, _, n int64, _ uint64) bool {
	t.n, t.err = n, nil
	d := t.f.delay
	if t.f.down {
		t.n, t.err, d = 0, nas.ErrTimeout, copyTimeout
	}
	if j.P != nil {
		j.P.Sleep(d)
		return t.Step(j)
	}
	j.Sched().After(d, j.Step)
	return false
}

func (t *copyTask) Step(*host.Job) bool {
	if t.err == nil {
		t.f.reads++
	}
	return true
}

func (t *copyTask) Result() (int64, *nas.Handle, error) { return t.n, nil, t.err }

// newTestSet builds a replica set over width fake copies, all mounted.
func newTestSet(policy AckPolicy, width int) (*Set[*fakeCopy], []*fakeCopy) {
	fakes := make([]*fakeCopy, width)
	for i := range fakes {
		fakes[i] = &fakeCopy{delay: sim.Microsecond}
	}
	return NewSet(policy, width, fakes, nil), fakes
}

// run executes fn as the only process of a fresh simulation.
func run(fn func(p *sim.Proc)) {
	s := sim.New()
	defer s.Close()
	s.Go("test", fn)
	s.Run()
}

func read(p *sim.Proc, set *Set[*fakeCopy]) error {
	return set.Do(p, func(wp *sim.Proc, _ int, in *fakeCopy) error {
		_, err := in.Read(wp, &nas.Handle{FH: 1}, 0, 1, 0)
		return err
	})
}

func write(p *sim.Proc, set *Set[*fakeCopy], off int64) error {
	_, err := set.Write(p, "w", func(wp *sim.Proc, _ int, in *fakeCopy) (int64, error) {
		return in.Write(wp, &nas.Handle{FH: 1}, off, 1, 0)
	})
	return err
}

// TestSetFailsOverCyclically walks the serving copy 0 → 1 → 2 as each
// dies, then, with every copy marked dead, fails the operation typed,
// clears the marks and wraps to copy 0, which the next operation finds
// restarted — reads there, and writes reach every copy again.
func TestSetFailsOverCyclically(t *testing.T) {
	set, fakes := newTestSet(AckSync, 3)
	var errs []error
	var servings []int
	step := func(p *sim.Proc) {
		errs = append(errs, read(p, set))
		servings = append(servings, set.Serving())
	}
	var writeErr error
	run(func(p *sim.Proc) {
		fakes[0].down = true
		step(p) // 0 dies: serve from 1
		fakes[1].down = true
		step(p) // 1 dies: skip dead 0, serve from 2
		fakes[2].down = true
		fakes[0].down = false
		step(p) // 2 dies, every copy marked: fail, wrap to 0
		step(p) // 0 restarted: served without a failover
		fakes[1].down, fakes[2].down = false, false
		writeErr = write(p, set, 0)
	})
	wantServing := []int{1, 2, 0, 0}
	for i, err := range errs {
		if wantErr := i == 2; (err != nil) != wantErr || (err != nil && !errors.Is(err, nas.ErrTimeout)) {
			t.Errorf("read %d: err = %v, want timeout only for read 2", i, err)
		}
		if servings[i] != wantServing[i] {
			t.Errorf("read %d: serving copy %d, want %d", i, servings[i], wantServing[i])
		}
	}
	if set.Failovers != 3 {
		t.Errorf("Failovers = %d, want 3", set.Failovers)
	}
	for i, f := range fakes {
		if f.reads != 1 {
			t.Errorf("copy %d served %d reads, want 1", i, f.reads)
		}
	}
	if writeErr != nil {
		t.Fatalf("write after the restart: %v", writeErr)
	}
	for i, f := range fakes {
		if f.writes != 1 {
			t.Errorf("copy %d applied %d writes, want 1 — exhaustion must clear the dead marks", i, f.writes)
		}
	}
}

// TestSetReissueSkipsAckedAndRequeuesFailed fails over from a primary
// holding uncommitted ranges: one the survivor already acknowledged is
// skipped, the other is re-issued stably; and a range whose re-issue
// fails is re-queued on the survivor for its next commit.
func TestSetReissueSkipsAckedAndRequeuesFailed(t *testing.T) {
	set, fakes := newTestSet(AckAsync, 2)
	acked := nas.WriteRange{Off: 0, N: 10}
	lost := nas.WriteRange{Off: 10, N: 10}
	for _, r := range []nas.WriteRange{acked, lost} {
		fakes[0].NoteUnstable(1, r.Off, r.N, 1)
	}
	fakes[1].NoteUnstable(1, acked.Off, acked.N, 1)
	var err error
	run(func(p *sim.Proc) {
		fakes[0].down = true
		err = read(p, set)
	})
	if err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if set.Reissued != 1 || len(fakes[1].stable) != 1 || fakes[1].stable[0] != lost {
		t.Errorf("Reissued = %d, stable writes %v; want only %v", set.Reissued, fakes[1].stable, lost)
	}
	if fakes[0].Pending(1) != 0 {
		t.Errorf("dead copy still holds %d ranges", fakes[0].Pending(1))
	}

	// A failing re-issue is re-queued, not dropped.
	set, fakes = newTestSet(AckAsync, 2)
	fakes[0].NoteUnstable(1, lost.Off, lost.N, 1)
	fakes[1].failReiss = true
	run(func(p *sim.Proc) {
		fakes[0].down = true
		err = read(p, set)
	})
	if err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if set.Reissued != 0 || !fakes[1].HasUncommitted(1, lost) {
		t.Errorf("Reissued = %d, survivor holds the failed range: %v; want 0, true",
			set.Reissued, fakes[1].HasUncommitted(1, lost))
	}
}

// TestSetClampsAckNeedWhenLiveSetShrinks times a replica out in the
// middle of a sync write: the first round misses the quorum, the copy
// is marked dead, and the rerun over the two survivors — whose ack
// requirement is clamped to them — completes.
func TestSetClampsAckNeedWhenLiveSetShrinks(t *testing.T) {
	set, fakes := newTestSet(AckSync, 3)
	fakes[2].down = true
	var err error
	run(func(p *sim.Proc) { err = write(p, set, 0) })
	if err != nil {
		t.Fatalf("sync write over a dying replica: %v", err)
	}
	if fakes[0].writes != 2 || fakes[1].writes != 2 {
		t.Errorf("survivors applied %d and %d writes, want 2 each (first round, clamped rerun)",
			fakes[0].writes, fakes[1].writes)
	}
	if set.ReplicaErrs != 1 || set.Failovers != 0 {
		t.Errorf("ReplicaErrs = %d, Failovers = %d; want 1, 0", set.ReplicaErrs, set.Failovers)
	}
	if live := set.live(); len(live) != 2 {
		t.Errorf("live copies %v, want the two survivors", live)
	}
}

// TestSetWidthOneNeverFailsOver checks an unreplicated shard's timeout
// surfaces as is: no failover onto itself, no dead mark, and its own
// uncommitted ranges stay where they are for its next commit.
func TestSetWidthOneNeverFailsOver(t *testing.T) {
	set, fakes := newTestSet(AckSync, 1)
	fakes[0].NoteUnstable(1, 0, 10, 1)
	fakes[0].down = true
	var readErr, writeErr error
	run(func(p *sim.Proc) {
		readErr = read(p, set)
		writeErr = write(p, set, 0)
	})
	if !errors.Is(readErr, nas.ErrTimeout) || !errors.Is(writeErr, nas.ErrTimeout) {
		t.Errorf("read, write err = %v, %v; want nas.ErrTimeout", readErr, writeErr)
	}
	if set.Failovers != 0 || set.Reissued != 0 {
		t.Errorf("Failovers = %d, Reissued = %d; want 0", set.Failovers, set.Reissued)
	}
	if set.dead[0] || fakes[0].Pending(1) != 1 || len(fakes[0].stable) != 0 {
		t.Errorf("dead = %v, pending = %d, stable = %v; want the copy untouched",
			set.dead[0], fakes[0].Pending(1), fakes[0].stable)
	}
}

// TestSetMountsCopiesLazily checks a copy's session is mounted at its
// first use — here a failover onto it, after which it is the set's
// current session.
func TestSetMountsCopiesLazily(t *testing.T) {
	primary := &fakeCopy{down: true}
	replica := &fakeCopy{}
	var mounted []int
	set := NewSet(AckAsync, 2, []*fakeCopy{primary},
		func(copy int) *fakeCopy { mounted = append(mounted, copy); return replica })
	var sessions int
	set.Mounted(func(*fakeCopy) { sessions++ })
	if sessions != 1 || len(mounted) != 0 {
		t.Fatalf("before use: %d sessions, mounts %v; want only the primary", sessions, mounted)
	}
	var err error
	run(func(p *sim.Proc) { err = read(p, set) })
	if err != nil || len(mounted) != 1 || mounted[0] != 1 || set.Current() != replica {
		t.Errorf("err %v, mounts %v; want the replica mounted once and current", err, mounted)
	}
}

// TestGroupFansNamespaceAndFailsOver drives a three-copy Group: a
// create reaches every copy, a replica's failed close is absorbed, and
// a read against the dead primary fails over to the live replica.
func TestGroupFansNamespaceAndFailsOver(t *testing.T) {
	fakes := []*fakeCopy{{}, {}, {}}
	g := NewGroup(AckSync, []Session{fakes[0], fakes[1], fakes[2]})
	var createErr, closeErr, readErr error
	run(func(p *sim.Proc) {
		var h *nas.Handle
		h, createErr = g.Create(p, "f")
		fakes[2].down = true
		closeErr = g.Close(p, h)
		fakes[0].down = true
		_, readErr = g.Read(p, h, 0, 1, 0)
	})
	if createErr != nil || closeErr != nil || readErr != nil {
		t.Fatalf("create, close, read: %v, %v, %v", createErr, closeErr, readErr)
	}
	if g.ReplicaErrs != 1 || g.Failovers != 1 || g.Serving() != 1 || fakes[1].reads != 1 {
		t.Errorf("ReplicaErrs = %d, Failovers = %d, serving %d, replica reads %d; want 1, 1, 1, 1",
			g.ReplicaErrs, g.Failovers, g.Serving(), fakes[1].reads)
	}
}

// taskRead reads one byte through a task of g driven from callbacks,
// as the async facade drives one, on a fresh simulation: it
// returns the outcome, the instant the read finished and the processes
// the simulation started.
func taskRead(g *Group) (got int64, err error, at sim.Time, procs int) {
	s := sim.New()
	defer s.Close()
	t := g.NewTask()
	done := func() { got, _, err = t.Result(); at = s.Now() }
	var j host.Job
	j = host.Job{S: s, Step: func() {
		j.Resume()
		if t.Step(&j) {
			done()
		}
	}}
	s.After(0, func() {
		if t.Read(&j, &nas.Handle{FH: 1, Name: "f"}, 0, 1, 0) {
			done()
		}
	})
	s.Run()
	return got, err, at, s.Procs()
}

// TestGroupTaskReadRunsOnServingCopy checks a Group's task: a read on
// a healthy serving copy runs as that copy's task and starts no
// process; a serving-copy timeout fails over on exactly one process;
// and either way the outcome — bytes, error, failovers, finish instant
// and the copy that answered — is the blocking Group.Read's on a twin
// set.
func TestGroupTaskReadRunsOnServingCopy(t *testing.T) {
	for _, tc := range []struct {
		name       string
		down       []bool
		procs      int
		wantGot    int64
		wantErr    error
		wantFailed uint64
	}{
		{"healthy", []bool{false, false}, 0, 1, nil, 0},
		{"primary down", []bool{true, false}, 1, 1, nil, 1},
		{"every copy down", []bool{true, true}, 1, 0, nas.ErrTimeout, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			twin := func() (*Group, []*fakeCopy) {
				fakes := make([]*fakeCopy, len(tc.down))
				sessions := make([]Session, len(tc.down))
				for i, down := range tc.down {
					fakes[i] = &fakeCopy{down: down, delay: sim.Microsecond}
					sessions[i] = fakes[i]
				}
				return NewGroup(AckSync, sessions), fakes
			}
			g, fakes := twin()
			got, err, at, procs := taskRead(g)
			if procs != tc.procs {
				t.Errorf("the task's read started %d processes, want %d", procs, tc.procs)
			}
			if got != tc.wantGot || err != tc.wantErr || g.Failovers != tc.wantFailed {
				t.Errorf("task read = %d, %v with %d failovers; want %d, %v with %d",
					got, err, g.Failovers, tc.wantGot, tc.wantErr, tc.wantFailed)
			}

			bg, bfakes := twin()
			var bgot int64
			var berr error
			var bat sim.Time
			run(func(p *sim.Proc) {
				bgot, berr = bg.Read(p, &nas.Handle{FH: 1, Name: "f"}, 0, 1, 0)
				bat = p.Now()
			})
			if bgot != got || berr != err || bat != at || bg.Failovers != g.Failovers || bg.Serving() != g.Serving() {
				t.Errorf("blocking read = %d, %v at %v, %d failovers, serving %d; the task's %d, %v at %v, %d, %d",
					bgot, berr, bat, bg.Failovers, bg.Serving(), got, err, at, g.Failovers, g.Serving())
			}
			for i := range fakes {
				if bfakes[i].reads != fakes[i].reads {
					t.Errorf("copy %d served %d blocking reads, %d task reads", i, bfakes[i].reads, fakes[i].reads)
				}
			}
		})
	}
}
