package nas

import (
	"danas/internal/host"
	"danas/internal/sim"
)

// DataTask runs a client's data operations as step machines over a
// host.Job: each method starts an operation on j and reports true if it
// finished in place. Otherwise j waits, and j.Step must continue the
// operation (Task.Step) until it reports true. A job carried by a
// process (host.Job.P) always finishes in place, making exactly the
// kernel calls of the client's blocking method; a job with none posts
// the same events at the same (at, seq) places from callbacks, and an
// operation gets a process (host.Job.Run) only where it really blocks.
type DataTask interface {
	// Read is the step machine of Client.Read.
	Read(j *host.Job, h *Handle, off, n int64, bufID uint64) bool
	// Write is the step machine of Client.Write.
	Write(j *host.Job, h *Handle, off, n int64, bufID uint64) bool
	// Commit is the step machine of Client.Commit.
	Commit(j *host.Job, h *Handle, off, n int64) bool
}

// RunOp starts op on t, dispatching on its Kind. Every caller that
// runs a queued Op routes through it, so a new OpKind is dispatched in
// one place.
func RunOp(t DataTask, j *host.Job, op *Op) bool {
	switch op.Kind {
	case OpWrite:
		return t.Write(j, op.H, op.Off, op.N, op.BufID)
	case OpCommit:
		return t.Commit(j, op.H, op.Off, op.N)
	default:
		return t.Read(j, op.H, op.Off, op.N, op.BufID)
	}
}

// Task runs a client's operations, one at a time, as step machines (see
// DataTask): the data operations, and the open and close a fan-out runs
// on every shard.
type Task interface {
	DataTask
	// Open resolves name, the step machine of Client.Open.
	Open(j *host.Job, name string) bool
	// Close releases h, the step machine of Client.Close.
	Close(j *host.Job, h *Handle) bool
	// Step continues the operation once j.Step is called.
	Step(j *host.Job) bool
	// Result is the finished operation's outcome: the bytes it moved,
	// the handle an open resolved, and its error.
	Result() (int64, *Handle, error)
}

// Stepper is a Client whose operations also run as Tasks.
type Stepper interface {
	Client
	// NewTask returns a task of the client's own, for one caller to
	// keep and reuse, or nil if the client's operations do not run as
	// step machines after all (a striped client over sub-clients with
	// none, say).
	NewTask() Task
}

// NewTask returns a task running c's operations: its own if c is a
// Stepper with one, and otherwise one that runs each operation's
// blocking method on the job's process (host.Job.Run).
func NewTask(c Client) Task {
	if s, ok := c.(Stepper); ok {
		if t := s.NewTask(); t != nil {
			return t
		}
	}
	return newProcTask(c)
}

// procTask runs a client with no step machines: each operation calls
// the client's blocking method on the job's process, or on a process
// started in place for a job with none.
type procTask struct {
	c     Client
	name  string
	h     *Handle
	off   int64
	n     int64
	bufID uint64

	got int64
	hd  *Handle
	err error

	// The operations' bodies, bound once.
	open, close, read, write, commit func(p *sim.Proc)
}

func newProcTask(c Client) *procTask {
	t := &procTask{c: c}
	t.open, t.close = t.doOpen, t.doClose
	t.read, t.write, t.commit = t.doRead, t.doWrite, t.doCommit
	return t
}

// start runs body on j for an operation on h.
func (t *procTask) start(j *host.Job, body func(p *sim.Proc), h *Handle, off, n int64, bufID uint64) bool {
	t.h, t.off, t.n, t.bufID = h, off, n, bufID
	t.got, t.hd, t.err = 0, nil, nil
	return j.Run("task", body)
}

func (t *procTask) Open(j *host.Job, name string) bool {
	t.name = name
	return t.start(j, t.open, nil, 0, 0, 0)
}

func (t *procTask) Close(j *host.Job, h *Handle) bool { return t.start(j, t.close, h, 0, 0, 0) }

func (t *procTask) Read(j *host.Job, h *Handle, off, n int64, bufID uint64) bool {
	return t.start(j, t.read, h, off, n, bufID)
}

func (t *procTask) Write(j *host.Job, h *Handle, off, n int64, bufID uint64) bool {
	return t.start(j, t.write, h, off, n, bufID)
}

func (t *procTask) Commit(j *host.Job, h *Handle, off, n int64) bool {
	return t.start(j, t.commit, h, off, n, 0)
}

func (t *procTask) Step(*host.Job) bool { return true }

func (t *procTask) Result() (int64, *Handle, error) { return t.got, t.hd, t.err }

func (t *procTask) doOpen(p *sim.Proc) { t.hd, t.err = t.c.Open(p, t.name) }

func (t *procTask) doClose(p *sim.Proc) { t.err = t.c.Close(p, t.h) }

func (t *procTask) doRead(p *sim.Proc) { t.got, t.err = t.c.Read(p, t.h, t.off, t.n, t.bufID) }

func (t *procTask) doWrite(p *sim.Proc) { t.got, t.err = t.c.Write(p, t.h, t.off, t.n, t.bufID) }

func (t *procTask) doCommit(p *sim.Proc) { t.err = t.c.Commit(p, t.h, t.off, t.n) }
