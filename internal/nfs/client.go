package nfs

import (
	"fmt"

	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/rpc"
	"danas/internal/sim"
	"danas/internal/udpip"
	"danas/internal/wire"
)

// Kind selects the client data path.
type Kind int

const (
	// Standard is unmodified kernel NFS: reply payloads are copied from
	// mbufs through the buffer cache to the user buffer.
	Standard Kind = iota
	// PrePosting is the RDDP-RPC client (§3.2): the user buffer is pinned
	// and pre-posted per I/O; the NIC splits headers and places the
	// payload directly. No copies, but per-I/O NIC interaction.
	PrePosting
	// Hybrid is the RDDP-RDMA client (§3.1): buffer addresses ride the
	// modified NFS wire protocol and the server RDMA-writes the data.
	// Registrations are cached across I/Os.
	Hybrid
)

func (k Kind) String() string {
	switch k {
	case Standard:
		return "NFS"
	case PrePosting:
		return "NFS pre-posting"
	case Hybrid:
		return "NFS hybrid"
	default:
		return fmt.Sprintf("nfs-kind(%d)", int(k))
	}
}

// Client is a kernel NFS client in one of the three variants.
type Client struct {
	kind Kind
	h    *host.Host
	n    *nic.NIC
	rpc  *rpc.Client
	regs *nic.RegCache // hybrid: cached registrations

	// The embedded commit tracker holds uncommitted unstable writes
	// against the server's write verifier; Commit re-issues ranges a
	// server crash lost.
	nas.CommitTracker

	// The embedded driver runs the blocking Open, Close, Read, Write and
	// Commit over the client's Task.
	nas.Driver[*Client, *Task]

	nextLocalPort int

	// prePost is c.prePostReply, bound once: the pre-posting read's
	// rpc.CallOpts.Prepare.
	prePost func(req *wire.Header) uint64
}

var _ nas.Client = (*Client)(nil)

// NewClient mounts an NFS client of the given kind over stack, talking to
// the server's stack.
func NewClient(s *sim.Scheduler, stack *udpip.Stack, localPort int, server *udpip.Stack, kind Kind) *Client {
	c := &Client{
		kind: kind,
		h:    stack.Host(),
		n:    stack.NIC(),
		rpc:  rpc.NewClient(s, stack, localPort, server, Port),
	}
	if kind == Hybrid {
		c.regs = nic.NewRegCache(c.n)
	}
	c.Driver = nas.NewDriver(c, func(c *Client) *Task { return &Task{c: c} })
	c.prePost = c.prePostReply
	return c
}

// Name implements nas.Client.
func (c *Client) Name() string { return c.kind.String() }

// Kind returns the client variant.
func (c *Client) Kind() Kind { return c.kind }

// RegCacheLen reports cached registrations (hybrid only).
func (c *Client) RegCacheLen() int {
	if c.regs == nil {
		return 0
	}
	return c.regs.Len()
}

// SetRetry configures RPC retransmission (see rpc.Client): nonzero
// timeout gives classic soft-mount NFS-over-UDP behaviour — bounded
// exponential backoff, then nas.ErrTimeout — so a crashed shard cannot
// hang a client process.
func (c *Client) SetRetry(timeout sim.Duration, maxRetries int) {
	c.rpc.RetransmitTimeout = timeout
	c.rpc.MaxRetries = maxRetries
}

// Retransmits reports RPC retransmissions (transparent retries).
func (c *Client) Retransmits() uint64 { return c.rpc.Retransmits }

// TimedOut reports calls that exhausted their retries and failed.
func (c *Client) TimedOut() uint64 { return c.rpc.TimedOut }

// call issues one RPC and folds local transport failure (retry
// exhaustion against a crashed server) and remote status into a typed
// nas error. The response lives in the RPC client's call record: the
// caller reads it before it next blocks or calls (see rpc.Response).
func (c *Client) call(p *sim.Proc, hdr *wire.Header, opts rpc.CallOpts) (*rpc.Response, error) {
	resp := c.rpc.Call(p, hdr, opts)
	if resp.Err != nil {
		return resp, resp.Err
	}
	return resp, nas.StatusErr(resp.Hdr.Status)
}

// Task runs one operation of a Client at a time — an open, a close, a
// read or a write, in the client's kind — as a step machine over a
// host.Job: the request, the registration and call it is at, and the
// outcome. A blocking method drives one from its caller's process
// (nas.Driver); an asynchronous caller keeps one and drives it from
// callbacks. It implements nas.Task for the client that made it, and
// drops the request's handle when the operation finishes.
type Task struct {
	c     *Client
	op    taskOp
	stage taskStage
	h     *nas.Handle
	bufID uint64
	hdr   wire.Header
	opts  rpc.CallOpts
	pin   host.Pin // pre-posting: the per-I/O registration
	reg   *host.Registration
	rg    nic.RegGet // hybrid: the cached registration
	call  rpc.Caller
	// charges are the client CPU charges after the reply, in order.
	charges [3]sim.Duration
	nCharge int

	n    int64
	hd   *nas.Handle
	err  error
	body func(p *sim.Proc) // t.commit, bound once
}

type taskOp uint8

const (
	taskOpen taskOp = iota
	taskClose
	taskRead
	taskWrite
)

type taskStage uint8

const (
	taskSyscall     taskStage = iota // charge the system call
	taskClientOp                     // charge the vnode-layer op
	taskRegister                     // register the buffer, per kind
	taskPinning                      // pre-posting: registration charged
	taskPinned                       // pre-posting: registration in hand
	taskRegistering                  // hybrid: registration charged
	taskRegistered                   // hybrid: registration in hand
	taskCall                         // issue the RPC
	taskCalling                      // the RPC under way
	taskReplied                      // the reply (or failure) in hand
	taskCharge                       // the post-reply charges
	taskUnpin                        // pre-posting: release the registration
	taskUnpinning                    // pre-posting: release charged
	taskDone
)

func (t *Task) start(j *host.Job, op taskOp, h *nas.Handle, bufID uint64, hdr wire.Header) bool {
	j.H = t.c.h
	t.op, t.stage, t.h, t.bufID, t.hdr, t.opts = op, taskSyscall, h, bufID, hdr, rpc.CallOpts{}
	t.reg, t.nCharge, t.n, t.hd, t.err = nil, 0, 0, nil, nil
	return t.Step(j)
}

// Open implements nas.Task.
func (t *Task) Open(j *host.Job, name string) bool {
	return t.start(j, taskOpen, nil, 0, wire.Header{Op: wire.OpOpen, Name: name})
}

// Close implements nas.Task. NFS is stateless: close is local.
func (t *Task) Close(j *host.Job, h *nas.Handle) bool {
	return t.start(j, taskClose, h, 0, wire.Header{})
}

// Read implements nas.Task: a read in the client's kind; this is the
// vnode-layer read path of Figure 2 in the paper.
func (t *Task) Read(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	return t.start(j, taskRead, h, bufID, wire.Header{Op: wire.OpRead, FH: h.FH, Offset: off, Length: n})
}

// Write implements nas.Task: an unstable write.
func (t *Task) Write(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	return t.write(j, h, off, n, bufID, 0)
}

// Commit implements nas.Task: a commit, on a process of its own
// (host.Job.Run).
func (t *Task) Commit(j *host.Job, h *nas.Handle, off, n int64) bool {
	if t.body == nil {
		t.body = t.commit
	}
	t.stage, t.h, t.hdr = taskDone, h, wire.Header{Offset: off, Length: n}
	t.n, t.hd, t.err = 0, nil, nil
	return j.Run("nfs-commit", t.body) && t.Step(j)
}

// commit is Commit's body.
func (t *Task) commit(p *sim.Proc) { t.err = t.c.commit(p, t.h, t.hdr.Offset, t.hdr.Length) }

// write starts an unstable (flags 0) or FILE_SYNC write.
func (t *Task) write(j *host.Job, h *nas.Handle, off, n int64, bufID uint64, flags uint8) bool {
	return t.start(j, taskWrite, h, bufID, wire.Header{Op: wire.OpWrite, FH: h.FH, Offset: off, Length: n, Flags: flags})
}

// Result implements nas.Task.
func (t *Task) Result() (int64, *nas.Handle, error) { return t.n, t.hd, t.err }

// Step implements nas.Task.
func (t *Task) Step(j *host.Job) bool {
	c := t.c
	for {
		switch t.stage {
		case taskSyscall:
			t.stage = taskClientOp
			if t.op == taskClose {
				t.stage = taskDone
			}
			if !j.Compute(c.h.P.SyscallCost) {
				return false
			}
		case taskClientOp:
			t.stage = taskRegister
			if !j.Compute(c.h.P.NFSClientOp) {
				return false
			}
		case taskRegister:
			t.stage = taskCall
			if t.op == taskOpen {
				break
			}
			n := t.hdr.Length
			switch c.kind {
			case Standard:
				if t.op == taskWrite {
					// Copy user -> mbufs at the client; payload rides the RPC.
					t.opts = rpc.CallOpts{PayloadBytes: n, CopyBytes: n}
				}
			case PrePosting:
				// Pin the user buffer: a read pre-posts it with the NIC per
				// I/O (Figure 2, left column), a write gathers DMA straight
				// from it.
				t.stage = taskPinned
				if !c.h.VM.RegisterThen(j, &t.pin, n) {
					t.stage = taskPinning
					return false
				}
			case Hybrid:
				t.stage = taskRegistered
				if !c.regs.GetThen(j, &t.rg, t.bufID, n) {
					t.stage = taskRegistering
					return false
				}
			default:
				panic("nfs: unknown kind")
			}
		case taskPinning:
			t.pin.Step(j)
			t.stage = taskPinned
		case taskPinned:
			if t.pin.Err != nil {
				t.err, t.stage = t.pin.Err, taskDone
				break
			}
			t.reg = t.pin.Reg
			if t.op == taskRead {
				t.opts = rpc.CallOpts{Prepare: c.prePost}
			} else {
				t.opts = rpc.CallOpts{PayloadBytes: t.hdr.Length}
			}
			t.stage = taskCall
		case taskRegistering:
			if !t.rg.Step(j) {
				return false
			}
			t.stage = taskRegistered
		case taskRegistered:
			if t.rg.Err != nil {
				t.err, t.stage = t.rg.Err, taskDone
				break
			}
			t.hdr.BufVA = t.rg.Entry.Seg.VA
			t.stage = taskCall
		case taskCall:
			t.stage = taskReplied
			if !c.rpc.CallThen(j, &t.call, &t.hdr, t.opts) {
				t.stage = taskCalling
				return false
			}
		case taskCalling:
			if !t.call.Step(j) {
				return false
			}
			t.stage = taskReplied
		case taskReplied:
			t.replied()
		case taskCharge:
			if t.nCharge == 0 {
				t.stage = taskUnpin
				break
			}
			d := t.charges[0]
			t.charges[0], t.charges[1], t.nCharge = t.charges[1], t.charges[2], t.nCharge-1
			if !j.Compute(d) {
				return false
			}
		case taskUnpin:
			t.stage = taskDone
			if t.reg != nil && !c.h.VM.UnregisterThen(j, &t.pin, t.reg) {
				t.stage = taskUnpinning
				return false
			}
		case taskUnpinning:
			t.pin.Step(j)
			t.stage = taskDone
		case taskDone:
			t.h, t.reg = nil, nil
			return true
		}
	}
}

// replied takes the operation's outcome from the RPC's response, which
// is valid only until the next call, and queues the charges that follow.
func (t *Task) replied() {
	c := t.c
	resp := t.call.Resp
	t.call.Resp = nil
	t.stage = taskCharge
	err := resp.Err
	if err == nil {
		err = nas.StatusErr(resp.Hdr.Status)
	}
	if err != nil {
		if t.op == taskRead && c.kind == PrePosting {
			// Failed or timed-out call: reclaim the pre-posted buffer so a
			// dead shard does not leak NIC state.
			c.n.CancelPrePost(t.hdr.XID)
		}
		t.err = err
		return
	}
	got := resp.Hdr.Length
	switch t.op {
	case taskOpen:
		t.hd = &nas.Handle{FH: resp.Hdr.FH, Size: got, Name: t.hdr.Name}
	case taskRead:
		t.n = got
		switch c.kind {
		case Standard:
			// mbufs -> buffer cache, then buffer cache -> user buffer: the
			// two copies that saturate the client CPU at 65 MB/s in
			// Figure 3.
			t.charges = [3]sim.Duration{c.h.CacheCopyCost(got), c.h.P.CacheInsert, c.h.CopyCost(got)}
			t.nCharge = 3
		case PrePosting:
			if !resp.Direct {
				// The NIC could not match the tag (e.g. buffer too small):
				// fall back to the copy path so data is never lost.
				c.n.CancelPrePost(resp.Hdr.XID)
				t.charges = [3]sim.Duration{c.h.CacheCopyCost(got), c.h.CopyCost(got)}
				t.nCharge = 2
			}
		}
		// Hybrid: data was RDMA-written directly into the registered
		// buffer before the reply arrived; nothing to copy.
	case taskWrite:
		if t.hdr.Flags&wire.FlagStable == 0 {
			c.NoteUnstable(t.h.FH, t.hdr.Offset, got, resp.Hdr.Verifier)
		}
		t.n = got
	}
}

// Getattr implements nas.Client.
func (c *Client) Getattr(p *sim.Proc, h *nas.Handle) (int64, error) {
	c.h.Syscall(p)
	c.h.Compute(p, c.h.P.NFSClientOp)
	resp, err := c.call(p, &wire.Header{Op: wire.OpGetattr, FH: h.FH}, rpc.CallOpts{})
	if err != nil {
		return 0, err
	}
	return resp.Hdr.Length, nil
}

// Create implements nas.Client.
func (c *Client) Create(p *sim.Proc, name string) (*nas.Handle, error) {
	c.h.Syscall(p)
	c.h.Compute(p, c.h.P.NFSClientOp)
	resp, err := c.call(p, &wire.Header{Op: wire.OpCreate, Name: name}, rpc.CallOpts{})
	if err != nil {
		return nil, err
	}
	return &nas.Handle{FH: resp.Hdr.FH, Name: name}, nil
}

// Remove implements nas.Client.
func (c *Client) Remove(p *sim.Proc, name string) error {
	c.h.Syscall(p)
	c.h.Compute(p, c.h.P.NFSClientOp)
	_, err := c.call(p, &wire.Header{Op: wire.OpRemove, Name: name}, rpc.CallOpts{})
	return err
}

// prePostReply hands the NIC a descriptor for the reply buffer the
// caller registered, tagged with the request's XID, and asks for that
// tag on the reply.
func (c *Client) prePostReply(req *wire.Header) uint64 {
	c.h.ComputeAsync(c.h.P.PIOWrite, nil) // hand descriptor to NIC
	c.n.PrePost(req.XID, req.Length)
	return req.XID
}

// WriteStable is the FILE_SYNC write: the server destages the data to
// disk before replying, so the range needs no commit.
func (c *Client) WriteStable(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	r := c.Take(p)
	r.Task.write(&r.Job, h, off, n, bufID, wire.FlagStable)
	got, err := r.Task.n, r.Task.err
	c.Put(r)
	return got, err
}

// commit is the commit's body (Task.Commit): destage the range
// server-side, then compare the reply's write verifier against the one
// each uncommitted write was accepted under — ranges accepted by a
// server incarnation that has since crashed were lost, and are
// re-issued stably here before the commit returns.
func (c *Client) commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	c.h.Syscall(p)
	c.h.Compute(p, c.h.P.NFSClientOp)
	upTo := c.Snapshot() // writes replied after this are not covered
	resp, err := c.call(p, &wire.Header{Op: wire.OpCommit, FH: h.FH, Offset: off, Length: n}, rpc.CallOpts{})
	if err != nil {
		return err
	}
	return c.ResolveCommit(h.FH, off, n, resp.Hdr.Verifier, upTo, func(r nas.WriteRange) error {
		_, werr := c.WriteStable(p, h, r.Off, r.N, nas.CommitBufID)
		return werr
	})
}

// WriteData sends a write carrying real bytes (used by workloads that
// verify content round-trips through the server file system).
func (c *Client) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	c.h.Syscall(p)
	c.h.Compute(p, c.h.P.NFSClientOp)
	n := int64(len(data))
	resp, err := c.call(p, &wire.Header{Op: wire.OpWrite, FH: h.FH, Offset: off, Length: n},
		rpc.CallOpts{PayloadBytes: n, CopyBytes: n, Payload: writePayload{data: data}})
	if err != nil {
		return 0, err
	}
	c.NoteUnstable(h.FH, off, resp.Hdr.Length, resp.Hdr.Verifier)
	return resp.Hdr.Length, nil
}
