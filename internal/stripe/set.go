package stripe

import (
	"errors"

	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/obs"
	"danas/internal/sim"
)

// Session is one copy's protocol session: a mounted client whose commit
// tracker failover can drain and re-issue from. The NFS and DAFS
// clients both are one.
type Session interface {
	nas.Client
	nas.FailoverSession
}

// copySession constrains a Set's session type: comparable, so an
// unmounted copy is the zero value.
type copySession interface {
	Session
	comparable
}

// Set is one shard's replica set: copy 0 is the shard's primary, the
// rest are its replicas (placed by Layout.Rack). It owns the failover
// rules both replicated client stacks share — the per-shard Group of
// the NFS and raw DAFS mounts, and the cached (O)DAFS client, where an
// unreplicated shard is the width-1 set:
//
//   - reads and namespace lookups go to the serving copy (Do); writes
//     reach every live copy, serving copy first, with the ack policy
//     deciding how many acknowledgements complete them (Write);
//   - a replica copy's failure is absorbed, and a copy that timed out is
//     marked dead so later writes stop waiting on it;
//   - when the serving copy stops answering (retry against it exhausts
//     in nas.ErrTimeout) the set fails over to the next live copy,
//     cyclically, and re-issues the dead session's uncommitted ranges
//     there — skipping ranges the survivor already acknowledged, which
//     is why a sync-policy failover re-issues nothing.
//
// A width-1 set never fails over: its only copy retrying itself is the
// unreplicated client's whole recovery. S is the copies' session type;
// sessions are mounted through mount on first use, so replicas connect
// cold at the first replicated write or at failover.
type Set[S copySession] struct {
	policy  AckPolicy
	copies  []S
	mount   func(copy int) S
	dead    []bool
	serving int
	fans    Fans
	// handles maps an open name to its per-copy handles, in a set that
	// records them (a Group's: identical creation order means the
	// copies usually agree on handles, but the bookkeeping never
	// assumes it).
	handles map[string][]*nas.Handle

	// Failovers counts serving-copy switches, which also makes it the
	// set's epoch: it changes exactly when Current does. Reissued counts
	// the uncommitted ranges re-written onto the new serving copy during
	// them; ReplicaErrs counts replica-copy failures absorbed by the ack
	// policy.
	Failovers   uint64
	Reissued    uint64
	ReplicaErrs uint64
}

// NewSet builds a replica set of width copies under policy. copies
// holds the sessions mounted up front (at least the primary's); mount,
// which may be nil when every copy is given, mounts the others on first
// use. Sessions must be retry-armed: one that cannot time out can never
// trigger failover.
func NewSet[S copySession](policy AckPolicy, width int, copies []S, mount func(copy int) S) *Set[S] {
	if width < 1 || len(copies) < 1 || len(copies) > width {
		panic("stripe: replica set needs a mounted primary and at most width copies")
	}
	all := make([]S, width)
	copy(all, copies)
	return &Set[S]{policy: policy, copies: all, mount: mount, dead: make([]bool, width)}
}

// Serving returns the index of the copy currently serving reads.
func (s *Set[S]) Serving() int { return s.serving }

// Current returns the serving copy's session.
func (s *Set[S]) Current() S { return s.copies[s.serving] }

// session returns copy's session, mounting it on first use.
func (s *Set[S]) session(copy int) S {
	var none S
	if s.copies[copy] == none {
		s.copies[copy] = s.mount(copy)
	}
	return s.copies[copy]
}

// copyHandle resolves the per-copy handle for h, falling back to h
// itself (correct when the copies assigned identical handles, which a
// replicated namespace with identical creation order guarantees).
func (s *Set[S]) copyHandle(h *nas.Handle, copy int) *nas.Handle {
	if h == nil {
		return nil
	}
	if hs, ok := s.handles[h.Name]; ok && copy < len(hs) && hs[copy] != nil {
		return hs[copy]
	}
	return h
}

// Mounted visits every mounted session in copy order, dead copies
// included (their counters still count).
func (s *Set[S]) Mounted(fn func(S)) {
	var none S
	for _, in := range s.copies {
		if in != none {
			fn(in)
		}
	}
}

// live returns the copies a write must reach, serving copy first.
func (s *Set[S]) live() []int {
	out := []int{s.serving}
	for i := range s.copies {
		if i != s.serving && !s.dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// need clamps the policy's ack requirement to the copies still alive:
// sync means "every copy that can still answer", not a wait for the
// dead.
func (s *Set[S]) need(liveCopies int) int {
	return min(s.policy.Need(len(s.copies)), liveCopies)
}

// noteReplicaErr absorbs a replica-copy failure: the ack policy decides
// whether the write still completes, and a copy that timed out is
// marked dead so later writes stop waiting on it.
func (s *Set[S]) noteReplicaErr(copy int, err error) {
	s.ReplicaErrs++
	if errors.Is(err, nas.ErrTimeout) {
		s.dead[copy] = true
	}
}

// failover reacts to err from an operation that ran on copy failed as
// its serving copy, and reports whether the operation should run again.
// Only a timeout of a set wider than one fails over. If another
// operation already moved on, it just reports "retry there"; otherwise
// it marks the copy dead, advances to the next live copy cyclically,
// and re-issues the dead session's uncommitted ranges on the new
// serving copy (cold: the new session holds no state from the old one).
// Ranges the new copy already acknowledged are skipped. A re-issue that
// itself fails is re-queued on the new session so the obligation
// surfaces again at its next commit.
//
// When every copy has been marked dead the marks are cleared and the
// next copy probed anyway: dead marks are routing hints, not tombstones
// — a crashed machine restarts, and the unreplicated client recovers
// exactly by retrying the only machine it has. The current operation
// still fails (typed timeout, never a hang); later operations probe the
// refreshed view and find the restarted copy.
func (s *Set[S]) failover(p *sim.Proc, err error, failed int) bool {
	if !s.Fails(err) {
		return false
	}
	if s.serving != failed {
		return true // a concurrent op already failed over
	}
	s.dead[failed] = true
	next, exhausted := -1, false
	for i := 1; i < len(s.copies); i++ {
		c := (failed + i) % len(s.copies)
		if !s.dead[c] {
			next = c
			break
		}
	}
	if next < 0 {
		clear(s.dead)
		next = (failed + 1) % len(s.copies)
		exhausted = true
	}
	old, nw := s.copies[failed], s.session(next)
	s.serving = next
	s.Failovers++
	obs.Active(p).CountFailover()
	for _, pr := range old.TakeUncommitted() {
		if nw.HasUncommitted(pr.FH, pr.WriteRange) {
			continue
		}
		if _, err := nw.WriteStable(p, &nas.Handle{FH: pr.FH}, pr.Off, pr.N, nas.CommitBufID); err != nil {
			nw.Requeue(pr.FH, pr.WriteRange)
			continue
		}
		s.Reissued++
	}
	return !exhausted
}

// Do runs a serving-copy operation, failing over and running it again
// on the survivor when the serving copy times out; any other error — or
// no copy left — surfaces.
func (s *Set[S]) Do(p *sim.Proc, fn func(wp *sim.Proc, copy int, in S) error) error {
	copy := s.serving
	err := fn(p, copy, s.copies[copy])
	if err == nil {
		return nil
	}
	return s.Retry(p, err, copy, fn)
}

// Fails reports whether err, from an operation on the serving copy,
// makes the set fail over: a timeout of a set wider than one. An
// operation that ran its first attempt as a step machine goes on to
// Retry, on a process, only then; otherwise err is its outcome.
func (s *Set[S]) Fails(err error) bool {
	return errors.Is(err, nas.ErrTimeout) && len(s.copies) > 1
}

// Retry continues Do after fn's attempt on copy failed ended with
// err: it fails over, and runs fn again on the survivor, as Do.
func (s *Set[S]) Retry(p *sim.Proc, err error, failed int, fn func(wp *sim.Proc, copy int, in S) error) error {
	if !s.failover(p, err, failed) {
		return err
	}
	return s.Do(p, fn)
}

// Width returns the number of copies.
func (s *Set[S]) Width() int { return len(s.copies) }

// Write fans a write-class operation to every live copy through the ack
// policy (Replicate), running it again after a failover (the write is
// idempotent: a copy that already applied it re-applies the same
// bytes) or after the live set shrank under it (the clamped ack
// requirement is then reachable again). A width-1 set runs it once, in
// line.
func (s *Set[S]) Write(p *sim.Proc, name string, op func(wp *sim.Proc, copy int, in S) (int64, error)) (int64, error) {
	if len(s.copies) == 1 {
		return op(p, 0, s.copies[0])
	}
	for {
		copies := s.live()
		got, err := Replicate(p, copies, s.need(len(copies)), name,
			func(wp *sim.Proc, copy int) (int64, error) { return op(wp, copy, s.session(copy)) },
			s.noteReplicaErr)
		switch {
		case err == nil:
			return got, nil
		case s.failover(p, err, copies[0]):
			continue
		case errors.Is(err, ErrNoQuorum) && len(s.live()) < len(copies):
			continue // a copy died mid-write; the smaller set can ack
		default:
			return got, err
		}
	}
}

// NameOp runs a handle-returning namespace operation on name (S.Open,
// S.Create) on every live copy through Fan, failing over and running it
// again on the survivors when the serving copy times out. It returns the per-copy
// handles (nil where a copy failed); the serving copy's is canonical.
// A copy that succeeded in an earlier round is not asked again: a
// create that already landed there would fail the rerun with
// nas.ErrExist.
func (s *Set[S]) NameOp(p *sim.Proc, name string, op func(in S, wp *sim.Proc, name string) (*nas.Handle, error)) ([]*nas.Handle, error) {
	hs := make([]*nas.Handle, len(s.copies))
	for {
		serving := s.serving
		err := s.Fan(p, "name-op", func(wp *sim.Proc, copy int, in S) error {
			if hs[copy] != nil {
				return nil
			}
			h, err := op(in, wp, name)
			if err == nil {
				hs[copy] = h
			}
			return err
		})
		if err == nil {
			return hs, nil
		}
		if !s.failover(p, err, serving) {
			return nil, err
		}
	}
}

// Remove removes name from every live copy through Write, so the ack
// policy decides when it completes and a serving-copy timeout fails
// over. A copy that removed the name in an earlier round is not asked
// again: the rerun would fail there with nas.ErrNoEnt.
func (s *Set[S]) Remove(p *sim.Proc, name string) error {
	removed := make([]bool, len(s.copies))
	_, err := s.Write(p, "remove", func(wp *sim.Proc, copy int, in S) (int64, error) {
		if removed[copy] {
			return 0, nil
		}
		err := in.Remove(wp, name)
		removed[copy] = err == nil
		return 0, err
	})
	return err
}

// Fan runs fn on every live copy concurrently, serving copy first (no
// ack policy: namespace operations and closes). A replica copy's
// failure is absorbed like a write's; the serving copy's error is the
// result. A width-1 set runs fn in line.
func (s *Set[S]) Fan(p *sim.Proc, name string, fn func(wp *sim.Proc, copy int, in S) error) error {
	if len(s.copies) == 1 {
		return fn(p, 0, s.copies[0])
	}
	copies := s.live()
	return s.fans.FanOut(p, len(copies), name, func(wp *sim.Proc, i int) error {
		copy := copies[i]
		err := fn(wp, copy, s.session(copy))
		if err != nil && i > 0 {
			s.noteReplicaErr(copy, err)
			return nil // replica failure is absorbed, not surfaced
		}
		return err
	})
}

// NewTask returns a task running operations on the set (see setTask).
func (s *Set[S]) NewTask() nas.Task { return s.newTask(nil) }

func (s *Set[S]) newTask(names nas.Client) *setTask[S] {
	return &setTask[S]{set: s, names: names}
}

// setTask runs operations on a replica set as step machines (see
// nas.Task): the task of a Group and of each shard of the cached
// client. An open, a close or a read runs as the serving copy's own
// task, and a serving-copy timeout that fails the set over (Fails)
// continues on a process (Retry). A write or a commit runs as the
// serving copy's task on a set of one copy, and on a process reaching
// every live copy under the ack policy (Write) otherwise. A Group's
// opens and closes reach every live copy: they run its own methods
// (names) on a process.
type setTask[S copySession] struct {
	set   *Set[S]
	names nas.Client // if non-nil, its Open and Close run instead
	own   nas.Task   // the task of copy owner, kept for reuse
	owner int
	in    nas.Task // own, while the operation runs on it
	copy  int      // the copy the operation ran on first
	ns    setName
	name  string      // an open's name
	h     *nas.Handle // the operation's handle
	op    nas.Op      // a data operation, through the serving copy's handle
	n     int64
	hd    *nas.Handle
	err   error
	body  func(p *sim.Proc) // t.blocked, bound at the first process
}

// setName is the namespace operation a setTask runs, if any.
type setName uint8

const (
	setData  setName = iota // a read, write or commit (op.Kind)
	setOpen                 // an open of name
	setClose                // a close of op.H
)

// Open implements nas.Task.
func (t *setTask[S]) Open(j *host.Job, name string) bool {
	t.name = name
	return t.start(j, setOpen, nas.Op{})
}

// Close implements nas.Task.
func (t *setTask[S]) Close(j *host.Job, h *nas.Handle) bool {
	return t.start(j, setClose, nas.Op{H: h})
}

// Read implements nas.Task.
func (t *setTask[S]) Read(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	return t.start(j, setData, nas.Op{Kind: nas.OpRead, H: h, Off: off, N: n, BufID: bufID})
}

// Write implements nas.Task.
func (t *setTask[S]) Write(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	return t.start(j, setData, nas.Op{Kind: nas.OpWrite, H: h, Off: off, N: n, BufID: bufID})
}

// Commit implements nas.Task.
func (t *setTask[S]) Commit(j *host.Job, h *nas.Handle, off, n int64) bool {
	return t.start(j, setData, nas.Op{Kind: nas.OpCommit, H: h, Off: off, N: n})
}

// start runs an operation on a process if it blocks from the outset (a
// Group's open or close, a write or commit to more than one copy), and
// otherwise on the serving copy's task, through its handle.
func (t *setTask[S]) start(j *host.Job, ns setName, op nas.Op) bool {
	s := t.set
	t.ns, t.h, t.op, t.copy, t.n, t.hd, t.err = ns, op.H, op, s.serving, 0, nil, nil
	if t.blocks() {
		return t.run(j, "set-task")
	}
	if t.own == nil || t.owner != t.copy {
		t.own, t.owner = s.copies[t.copy].NewTask(), t.copy
	}
	t.in, t.op.H = t.own, s.copyHandle(op.H, t.copy)
	var done bool
	switch ns {
	case setOpen:
		done = t.in.Open(j, t.name)
	case setClose:
		done = t.in.Close(j, t.op.H)
	default:
		done = nas.RunOp(t.in, j, &t.op)
	}
	return done && t.served(j)
}

// blocks reports whether the operation runs on a process from the
// outset.
func (t *setTask[S]) blocks() bool {
	if t.ns != setData {
		return t.names != nil
	}
	return t.op.Kind != nas.OpRead && len(t.set.copies) > 1
}

// Step implements nas.Task.
func (t *setTask[S]) Step(j *host.Job) bool {
	if t.in == nil { // the operation's process is done
		return true
	}
	return t.in.Step(j) && t.served(j)
}

// served ends the operation the serving copy's task ran, failing over
// on a process if the set fails over on its error.
func (t *setTask[S]) served(j *host.Job) bool {
	t.n, t.hd, t.err = t.in.Result()
	t.in = nil
	if t.err == nil || !t.set.Fails(t.err) {
		return true
	}
	return t.run(j, "set-failover")
}

// run runs the rest of the operation on the job's process (blocked).
func (t *setTask[S]) run(j *host.Job, name string) bool {
	if t.body == nil {
		t.body = t.blocked
	}
	return j.Run(name, t.body)
}

// Result implements nas.Task.
func (t *setTask[S]) Result() (int64, *nas.Handle, error) { return t.n, t.hd, t.err }

// blocked is the body of the task's process: a Group's open or close,
// a write or commit reaching every live copy, or the failover of an
// operation the serving copy's task ran, and its rerun on the survivor.
func (t *setTask[S]) blocked(p *sim.Proc) {
	switch {
	case !t.blocks():
		t.err = t.set.Retry(p, t.err, t.copy, t.rerun)
	case t.ns == setOpen:
		t.hd, t.err = t.names.Open(p, t.name)
	case t.ns == setClose:
		t.err = t.names.Close(p, t.h)
	default:
		t.n, t.err = t.set.Write(p, "set-write", t.call)
	}
}

// call runs the operation on copy, whose session is in, from wp,
// through the session's blocking method, which carries a task of the
// session's own: a replica's write may run on after the operation is
// done. It sets an open's handle.
func (t *setTask[S]) call(wp *sim.Proc, copy int, in S) (int64, error) {
	op := t.op
	op.H = t.set.copyHandle(t.h, copy)
	switch t.ns {
	case setOpen:
		var err error
		t.hd, err = in.Open(wp, t.name)
		return 0, err
	case setClose:
		return 0, in.Close(wp, op.H)
	}
	return nas.CallOp(wp, in, &op)
}

// rerun is the failover's rerun on the survivor.
func (t *setTask[S]) rerun(wp *sim.Proc, copy int, in S) (err error) {
	t.n, err = t.call(wp, copy, in)
	return err
}
