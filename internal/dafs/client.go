package dafs

import (
	"danas/internal/cache"
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/vi"
	"danas/internal/wire"
)

// TransferMode selects how read data reaches the client.
type TransferMode int

const (
	// Direct: explicit buffer advertisement + server-initiated RDMA
	// write (the normal DAFS data path).
	Direct TransferMode = iota
	// Inline: payload carried in the reply message; the consumer pays a
	// copy to its final destination.
	Inline
)

// Client is a user-level DAFS client: a session QP, an event loop that
// completes outstanding requests from its receive callbacks, and a
// registration cache so application buffers are registered once (§3.1,
// §5.1).
type Client struct {
	h        *host.Host
	n        *nic.NIC
	qp       *vi.QP
	transfer TransferMode
	regs     *nic.RegCache

	// The embedded call table carries the session's retransmission
	// settings and call counters. There is no session duplicate-request
	// cache: reads, writes, opens and getattrs are idempotent in the
	// model, so re-execution is harmless; a retransmitted Create/Remove
	// whose first execution succeeded can surface ErrExist/ErrNoEnt —
	// the classic at-least-once artifact NFS shows whenever its DRC is
	// cold, accepted here since the replayed workloads only retry data
	// ops.
	nas.CallTable[completion, sent]

	// The embedded commit tracker holds uncommitted unstable writes
	// against the server's write verifier; Commit re-issues ranges a
	// server crash lost.
	nas.CommitTracker

	// The embedded driver runs the blocking Open, Close, Read, Write and
	// Commit, and the other session calls, over the client's Task.
	nas.Driver[*Client, *Task]

	msgs *sim.Pool[msg] // the simulation's message records (msgPools)
}

var _ nas.Client = (*Client)(nil)

// completion is a finished request as resolved by the event loop: the
// reply, copied out of its message record.
type completion struct {
	hdr          wire.Header
	payloadBytes int64
	ref          fsim.BlockRef
}

// sent is a transmitted request, kept by value in the call record for
// retransmission.
type sent struct {
	body         msg
	payloadBytes int64
}

// message returns a transmission of s in a record from the pool.
func (c *Client) message(s *sent) vi.Msg {
	return vi.Msg{
		HeaderBytes:  s.body.Hdr.WireSize() + 16*len(s.body.Batch),
		PayloadBytes: s.payloadBytes,
		Header:       c.msgs.Copy(&s.body),
		Span:         s.body.Hdr.Span,
	}
}

// NewClient connects a client on clientNIC to srv. mode picks the client's
// completion discipline (the paper's user-level client polls). The
// scheduler is the client host's; the client's call and message records
// come from its pools.
func NewClient(s *sim.Scheduler, clientNIC *nic.NIC, srv *Server, mode nic.NotifyMode, transfer TransferMode) *Client {
	c := &Client{
		h:        clientNIC.Host(),
		n:        clientNIC,
		qp:       srv.Connect(clientNIC, mode),
		transfer: transfer,
		regs:     nic.NewRegCache(clientNIC),
		msgs:     msgPools.Of(s),
	}
	c.Driver = nas.NewDriver(c, func(c *Client) *Task { return &Task{c: c} })
	c.Init(callPools.Of(s), c.resend)
	c.qp.Listen(c.complete)
	return c
}

// Name implements nas.Client.
func (c *Client) Name() string {
	if c.transfer == Inline {
		return "DAFS (inline)"
	}
	return "DAFS"
}

// QP exposes the session connection; Optimistic DAFS issues ORDMA on it.
func (c *Client) QP() *vi.QP { return c.qp }

// Host returns the client host.
func (c *Client) Host() *host.Host { return c.h }

// Regs returns the registration cache.
func (c *Client) Regs() *nic.RegCache { return c.regs }

// complete resolves the outstanding request a received reply answers —
// a step of the paper's user-level DAFS client event loop, which runs
// from the session QP's receive callbacks (extended with ORDMA
// completions in §4.2.1, which ride the same VI completion path via
// QP.RDMA).
//
// The reply is copied into the call's record and its message record
// released.
func (c *Client) complete(m nic.Message) bool {
	rep := m.Header.(*msg)
	if call := c.Answer(rep.Hdr.XID); call != nil {
		call.Reply = completion{hdr: rep.Hdr, payloadBytes: m.PayloadBytes, ref: rep.Ref}
		call.Resolve()
	}
	c.msgs.Release(rep)
	return true
}

// resend retransmits a session request from the library's retry timer,
// charging the send cost asynchronously.
func (c *Client) resend(s *sent) {
	c.h.ComputeAsync(c.h.P.DAFSClientOp, nil)
	vm := c.message(s)
	c.qp.SendAsync(&vm)
}

// SetRetry configures session retransmission: nonzero timeout makes a
// dead or unreachable server surface as nas.ErrTimeout after bounded
// backoff instead of hanging the calling process forever.
func (c *Client) SetRetry(timeout sim.Duration, maxRetries int) {
	c.RetransmitTimeout = timeout
	c.MaxRetries = maxRetries
}

// SetRDMATimeout bounds direct-access descriptors on the session QP:
// a get through a black-holed fabric path (down leaf or spine switch)
// completes with nic.StatusTimeout and falls back to RPC instead of
// waiting forever. Armed by multi-leaf fabric experiments; the
// single-switch star cannot black-hole frames, so it never needs this.
func (c *Client) SetRDMATimeout(d sim.Duration) { c.qp.SetRDMATimeout(d) }

// call issues one session request, hdr with a batch request's extra
// ranges or a write's bytes, and waits for its completion, folding
// local failure (retry exhaustion) and remote status into one typed
// error.
func (c *Client) call(p *sim.Proc, hdr *wire.Header, batch []int64, data []byte, payloadBytes int64) (reply, error) {
	r := c.Take(p)
	t := r.Task
	t.request(*hdr, batch, data, payloadBytes)
	t.start(&r.Job, taskCall, taskClientOp)
	rep, err := t.rep, t.Err
	c.Put(r)
	return rep, err
}

// reply is what a bare call's callers read of its reply.
type reply struct {
	n        int64 // the reply's length
	fh, verf uint64
}

// Task runs one session operation of a Client at a time as a step
// machine over a host.Job: the request, the registration and call it
// is at, and the outcome. A blocking method drives one from its
// caller's process (nas.Driver); an asynchronous caller keeps one and
// drives it from callbacks. It implements nas.Task for the client that
// made it, and drops the request's handle, batch and bytes when the
// operation finishes.
type Task struct {
	c       *Client
	op      taskOp
	stage   taskStage
	h       *nas.Handle
	bufID   uint64
	hdr     wire.Header
	batch   []int64
	data    []byte
	payload int64
	reg     nic.RegGet
	call    *nas.Call[completion, sent]
	rep     reply             // a bare call's
	body    func(p *sim.Proc) // t.commit, bound once

	// N, Handle, Ref and Err are the finished operation's outcome: the
	// bytes it moved, the handle an open resolved, a read's piggybacked
	// remote memory reference, held by value (VA 0 when the reply
	// carried none), and the error.
	N      int64
	Handle *nas.Handle
	Ref    cache.RemoteRef
	Err    error
}

type taskOp uint8

const (
	taskCall taskOp = iota // a bare call, for a blocking method
	taskOpen
	taskClose
	taskRead
	taskWrite
)

type taskStage uint8

const (
	taskRegister    taskStage = iota // get the buffer's registration
	taskRegistering                  // the registration is charged
	taskRegistered                   // the registration is in hand
	taskCopy                         // charge an inline write's copy
	taskClientOp                     // charge the client library's per-op cost
	taskSendCost                     // charge the send's post cost
	taskPost                         // post the request
	taskAwait                        // wait for the reply
	taskDone
)

// request sets the request a task sends: hdr, with a batch request's
// extra ranges or a write's bytes, and the payload it carries.
func (t *Task) request(hdr wire.Header, batch []int64, data []byte, payload int64) {
	t.hdr, t.batch, t.data, t.payload = hdr, batch, data, payload
}

// start runs a task set up for op on j from stage.
func (t *Task) start(j *host.Job, op taskOp, stage taskStage) bool {
	j.H = t.c.h
	t.op, t.stage, t.N, t.Handle, t.Ref, t.Err = op, stage, 0, nil, cache.RemoteRef{}, nil
	return t.Step(j)
}

// OpenThen is Open as a step machine over j: it reports true once t
// holds the outcome; otherwise j waits, and j.Step must call t.Step
// until it reports true.
func (c *Client) OpenThen(j *host.Job, t *Task, name string) bool {
	t.c = c
	t.request(wire.Header{Op: wire.OpOpen, Name: name}, nil, nil, 0)
	return t.start(j, taskOpen, taskClientOp)
}

// ReadThen is ReadDirect into bufID's registration (mode Direct) or
// ReadInline (mode Inline) as a step machine over j, as OpenThen.
func (c *Client) ReadThen(j *host.Job, t *Task, h *nas.Handle, off, n int64, bufID uint64, mode TransferMode) bool {
	t.c, t.bufID = c, bufID
	t.request(wire.Header{Op: wire.OpRead, FH: h.FH, Offset: off, Length: n}, nil, nil, 0)
	if mode == Inline {
		return t.start(j, taskRead, taskClientOp)
	}
	return t.start(j, taskRead, taskRegister)
}

// WriteThen is Write (flags 0) or WriteStable (wire.FlagStable) as a
// step machine over j, as OpenThen.
func (c *Client) WriteThen(j *host.Job, t *Task, h *nas.Handle, off, n int64, bufID uint64, flags uint8) bool {
	t.c, t.h, t.bufID = c, h, bufID
	hdr := wire.Header{Op: wire.OpWrite, FH: h.FH, Offset: off, Length: n, Flags: flags}
	if c.transfer == Inline {
		t.request(hdr, nil, nil, n)
		return t.start(j, taskWrite, taskCopy)
	}
	t.request(hdr, nil, nil, 0)
	return t.start(j, taskWrite, taskRegister)
}

// Open implements nas.Task.
func (t *Task) Open(j *host.Job, name string) bool { return t.c.OpenThen(j, t, name) }

// Close implements nas.Task.
func (t *Task) Close(j *host.Job, h *nas.Handle) bool {
	t.request(wire.Header{Op: wire.OpClose, FH: h.FH}, nil, nil, 0)
	return t.start(j, taskClose, taskClientOp)
}

// Read implements nas.Task: a read in the client's transfer mode. The
// DAFS user API delivers an inline payload zero-copy: the application
// consumes it from the communication buffer. (Copying into a separate
// destination — e.g. a cache block — is the caller's cost; see Table 3's
// in-mem/in-cache split.)
func (t *Task) Read(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	return t.c.ReadThen(j, t, h, off, n, bufID, t.c.transfer)
}

// Write implements nas.Task: the server pulls data from the registered
// buffer with an RDMA read (direct mode) or takes it in-line. The write
// is unstable: a write-behind server may hold it dirty until Commit.
func (t *Task) Write(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	return t.c.WriteThen(j, t, h, off, n, bufID, 0)
}

// Commit implements nas.Task: a commit, on a process of its own
// (host.Job.Run).
func (t *Task) Commit(j *host.Job, h *nas.Handle, off, n int64) bool {
	t.h, t.hdr.Offset, t.hdr.Length = h, off, n
	t.op, t.stage, t.N, t.Handle, t.Ref, t.Err = taskCall, taskDone, 0, nil, cache.RemoteRef{}, nil
	if t.body == nil {
		t.body = t.commit
	}
	return j.Run("dafs-commit", t.body) && t.Step(j)
}

// commit is Commit's body.
func (t *Task) commit(p *sim.Proc) { t.Err = t.c.commit(p, t.h, t.hdr.Offset, t.hdr.Length) }

// Result implements nas.Task.
func (t *Task) Result() (int64, *nas.Handle, error) { return t.N, t.Handle, t.Err }

// Step advances the task on j (see OpenThen).
func (t *Task) Step(j *host.Job) bool {
	c := t.c
	for {
		switch t.stage {
		case taskRegister:
			t.stage = taskRegistered
			if !c.regs.GetThen(j, &t.reg, t.bufID, t.hdr.Length) {
				t.stage = taskRegistering
				return false
			}
		case taskRegistering:
			if !t.reg.Step(j) {
				return false
			}
			t.stage = taskRegistered
		case taskRegistered:
			if t.reg.Err != nil {
				t.Err, t.stage = t.reg.Err, taskDone
				break
			}
			t.hdr.BufVA = t.reg.Entry.Seg.VA
			t.stage = taskClientOp
		case taskCopy:
			t.stage = taskClientOp
			if !j.Compute(c.h.CopyCost(t.payload)) { // user buffer -> comm buffer
				return false
			}
		case taskClientOp:
			t.stage = taskSendCost
			if !j.Compute(c.h.P.DAFSClientOp) {
				return false
			}
		case taskSendCost:
			t.call = c.Begin(j, &t.hdr)
			r := &t.call.Req
			r.body.Hdr, r.body.Batch, r.body.Data, r.payloadBytes = t.hdr, t.batch, t.data, t.payload
			t.stage = taskPost
			if !j.Compute(c.n.PostCost()) {
				return false
			}
		case taskPost:
			vm := c.message(&t.call.Req)
			c.qp.SendAsync(&vm)
			t.stage = taskAwait
		case taskAwait:
			t.stage = taskDone
			if !c.Await(j, t.call) {
				return false
			}
		case taskDone:
			if t.call != nil {
				t.finish()
			}
			t.h, t.batch, t.data = nil, nil, nil
			return true
		}
	}
}

// finish ends the call and takes the operation's outcome from its reply.
func (t *Task) finish() {
	c := t.c
	res, err := t.call.Result()
	c.End(t.call)
	t.call = nil
	if err == nil {
		err = nas.StatusErr(res.hdr.Status)
	}
	t.Err = err
	if err != nil {
		return
	}
	switch t.op {
	case taskCall:
		t.rep = reply{n: res.hdr.Length, fh: res.hdr.FH, verf: res.hdr.Verifier}
	case taskOpen:
		t.Handle = &nas.Handle{FH: res.hdr.FH, Size: res.hdr.Length, Name: t.hdr.Name}
	case taskRead:
		t.N, t.Ref = res.hdr.Length, RemoteRefOf(&res.hdr)
	case taskWrite:
		if t.hdr.Flags&wire.FlagStable == 0 {
			c.NoteUnstable(t.h.FH, t.hdr.Offset, res.hdr.Length, res.hdr.Verifier)
		}
		t.N = res.hdr.Length
	}
}

// Getattr implements nas.Client.
func (c *Client) Getattr(p *sim.Proc, h *nas.Handle) (int64, error) {
	rep, err := c.call(p, &wire.Header{Op: wire.OpGetattr, FH: h.FH}, nil, nil, 0)
	if err != nil {
		return 0, err
	}
	return rep.n, nil
}

// Create implements nas.Client.
func (c *Client) Create(p *sim.Proc, name string) (*nas.Handle, error) {
	rep, err := c.call(p, &wire.Header{Op: wire.OpCreate, Name: name}, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	return &nas.Handle{FH: rep.fh, Name: name}, nil
}

// Remove implements nas.Client.
func (c *Client) Remove(p *sim.Proc, name string) error {
	_, err := c.call(p, &wire.Header{Op: wire.OpRemove, Name: name}, nil, nil, 0)
	return err
}

// ReadDirect reads n bytes at off into the registered buffer bufID via
// server-initiated RDMA. It returns the byte count and any piggybacked
// remote memory reference, by value (VA 0 unless the server is
// optimistic).
func (c *Client) ReadDirect(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, cache.RemoteRef, error) {
	return c.read(p, h, off, n, bufID, Direct)
}

// ReadInline reads n bytes at off with the payload in-line in the reply.
// The caller charges the copy to the data's final destination (user buffer
// or client cache block), which is what distinguishes the Table 3 columns.
func (c *Client) ReadInline(p *sim.Proc, h *nas.Handle, off, n int64) (int64, cache.RemoteRef, error) {
	return c.read(p, h, off, n, 0, Inline)
}

func (c *Client) read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64, mode TransferMode) (int64, cache.RemoteRef, error) {
	r := c.Take(p)
	c.ReadThen(&r.Job, r.Task, h, off, n, bufID, mode)
	got, ref, err := r.Task.N, r.Task.Ref, r.Task.Err
	c.Put(r)
	return got, ref, err
}

// BatchReadDirect issues one request covering len(offs) ranges of n bytes
// each, all RDMA-written into the registered buffer bufID — DAFS batch I/O
// (§2.2), amortizing the client's per-I/O RPC cost. It returns the total
// bytes transferred across all ranges.
func (c *Client) BatchReadDirect(p *sim.Proc, h *nas.Handle, offs []int64, n int64, bufID uint64) (int64, error) {
	if len(offs) == 0 {
		return 0, nil
	}
	e, err := c.regs.Get(p, bufID, n*int64(len(offs)))
	if err != nil {
		return 0, err
	}
	rep, err := c.call(p, &wire.Header{
		Op: wire.OpRead, FH: h.FH, Offset: offs[0], Length: n, BufVA: e.Seg.VA,
	}, offs[1:], nil, 0)
	if err != nil {
		return 0, err
	}
	return rep.n, nil
}

// WriteStable is the FILE_SYNC write: the server destages the data to
// disk before replying, so the range needs no commit.
func (c *Client) WriteStable(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	r := c.Take(p)
	c.WriteThen(&r.Job, r.Task, h, off, n, bufID, wire.FlagStable)
	got, err := r.Task.N, r.Task.Err
	c.Put(r)
	return got, err
}

// WriteData writes real bytes (content-verifying workloads).
func (c *Client) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	n := int64(len(data))
	c.h.Compute(p, c.h.CopyCost(n))
	rep, err := c.call(p, &wire.Header{Op: wire.OpWrite, FH: h.FH, Offset: off, Length: n},
		nil, data, n)
	if err != nil {
		return 0, err
	}
	c.NoteUnstable(h.FH, off, rep.n, rep.verf)
	return rep.n, nil
}

// commit is the commit's body (Task.Commit): destage the range
// server-side, then compare the reply's write verifier against the one
// each uncommitted write was accepted under — ranges accepted by a
// server incarnation that has since crashed were lost, and are
// re-issued stably here before the commit returns.
func (c *Client) commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	upTo := c.Snapshot() // writes replied after this are not covered
	rep, err := c.call(p, &wire.Header{Op: wire.OpCommit, FH: h.FH, Offset: off, Length: n}, nil, nil, 0)
	if err != nil {
		return err
	}
	return c.ResolveCommit(h.FH, off, n, rep.verf, upTo, func(r nas.WriteRange) error {
		_, werr := c.WriteStable(p, h, r.Off, r.N, nas.CommitBufID)
		return werr
	})
}
