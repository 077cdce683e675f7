package nas

import (
	"danas/internal/host"
	"danas/internal/sim"
)

// Task runs a client's operations, one at a time, as step machines over
// a host.Job: each method starts an operation on j and reports true if
// it finished in place. Otherwise j waits, and j.Step must continue the
// operation (Step) until it reports true. A job carried by a process
// (host.Job.P) always finishes in place, making exactly the kernel
// calls of the client's blocking method; a job with none posts the same
// events at the same (at, seq) places from callbacks, and an operation
// gets a process (host.Job.Run) only where it really blocks.
type Task interface {
	// Open resolves name, the step machine of Client.Open.
	Open(j *host.Job, name string) bool
	// Close releases h, the step machine of Client.Close.
	Close(j *host.Job, h *Handle) bool
	// Read is the step machine of Client.Read.
	Read(j *host.Job, h *Handle, off, n int64, bufID uint64) bool
	// Write is the step machine of Client.Write.
	Write(j *host.Job, h *Handle, off, n int64, bufID uint64) bool
	// Commit is the step machine of Client.Commit.
	Commit(j *host.Job, h *Handle, off, n int64) bool
	// Step continues the operation once j.Step is called.
	Step(j *host.Job) bool
	// Result is the finished operation's outcome: the bytes it moved,
	// the handle an open resolved, and its error.
	Result() (int64, *Handle, error)
}

// RunOp starts op on t, dispatching on its Kind, and CallOp is its
// process-style twin: every caller that runs a queued Op routes through
// one of them, so a new OpKind is dispatched in one place.
func RunOp(t Task, j *host.Job, op *Op) bool {
	switch op.Kind {
	case OpWrite:
		return t.Write(j, op.H, op.Off, op.N, op.BufID)
	case OpCommit:
		return t.Commit(j, op.H, op.Off, op.N)
	default:
		return t.Read(j, op.H, op.Off, op.N, op.BufID)
	}
}

// CallOp runs op through c's blocking method from p.
func CallOp(p *sim.Proc, c Client, op *Op) (int64, error) {
	switch op.Kind {
	case OpWrite:
		return c.Write(p, op.H, op.Off, op.N, op.BufID)
	case OpCommit:
		return 0, c.Commit(p, op.H, op.Off, op.N)
	default:
		return c.Read(p, op.H, op.Off, op.N, op.BufID)
	}
}
