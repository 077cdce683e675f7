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

	msgs msgPool // the request records this client sends
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

// message returns a transmission of s in a fresh record.
func (c *Client) message(s *sent) vi.Msg {
	return vi.Msg{
		HeaderBytes:  s.body.Hdr.WireSize() + 16*len(s.body.Batch),
		PayloadBytes: s.payloadBytes,
		Header:       c.msgs.send(&s.body),
		Span:         s.body.Hdr.Span,
	}
}

// NewClient connects a client on clientNIC to srv. mode picks the client's
// completion discipline (the paper's user-level client polls). The
// scheduler is the client host's.
func NewClient(_ *sim.Scheduler, clientNIC *nic.NIC, srv *Server, mode nic.NotifyMode, transfer TransferMode) *Client {
	c := &Client{
		h:        clientNIC.Host(),
		n:        clientNIC,
		qp:       srv.Connect(clientNIC, mode),
		transfer: transfer,
		regs:     nic.NewRegCache(clientNIC),
	}
	c.Init(c.resend)
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
	rep.release()
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
// error. The completion lives in the call's record: the caller reads
// it before it next blocks or calls.
func (c *Client) call(p *sim.Proc, hdr *wire.Header, batch []int64, data []byte, payloadBytes int64) (*completion, error) {
	c.h.Compute(p, c.h.P.DAFSClientOp)
	call := c.Begin(p, hdr)
	r := &call.Req
	r.body.Hdr, r.body.Batch, r.body.Data, r.payloadBytes = *hdr, batch, data, payloadBytes
	c.send(p, r)
	res, err := c.Wait(p, hdr, call)
	c.End(call)
	if err != nil {
		return nil, err
	}
	return res, nas.StatusErr(res.hdr.Status)
}

// send transmits s from the calling process.
func (c *Client) send(p *sim.Proc, s *sent) {
	vm := c.message(s)
	c.qp.Send(p, &vm)
}

// Open implements nas.Client.
func (c *Client) Open(p *sim.Proc, name string) (*nas.Handle, error) {
	res, err := c.call(p, &wire.Header{Op: wire.OpOpen, Name: name}, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	return &nas.Handle{FH: res.hdr.FH, Size: res.hdr.Length, Name: name}, nil
}

// Getattr implements nas.Client.
func (c *Client) Getattr(p *sim.Proc, h *nas.Handle) (int64, error) {
	res, err := c.call(p, &wire.Header{Op: wire.OpGetattr, FH: h.FH}, nil, nil, 0)
	if err != nil {
		return 0, err
	}
	return res.hdr.Length, nil
}

// Create implements nas.Client.
func (c *Client) Create(p *sim.Proc, name string) (*nas.Handle, error) {
	res, err := c.call(p, &wire.Header{Op: wire.OpCreate, Name: name}, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	return &nas.Handle{FH: res.hdr.FH, Name: name}, nil
}

// Remove implements nas.Client.
func (c *Client) Remove(p *sim.Proc, name string) error {
	_, err := c.call(p, &wire.Header{Op: wire.OpRemove, Name: name}, nil, nil, 0)
	return err
}

// Close implements nas.Client.
func (c *Client) Close(p *sim.Proc, h *nas.Handle) error {
	_, err := c.call(p, &wire.Header{Op: wire.OpClose, FH: h.FH}, nil, nil, 0)
	return err
}

// ReadDirect reads n bytes at off into the registered buffer bufID via
// server-initiated RDMA. It returns the byte count and any piggybacked
// remote memory reference (non-nil only against an optimistic server).
func (c *Client) ReadDirect(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, *cache.RemoteRef, error) {
	e, err := c.regs.Get(p, bufID, n)
	if err != nil {
		return 0, nil, err
	}
	res, err := c.call(p, &wire.Header{Op: wire.OpRead, FH: h.FH, Offset: off, Length: n, BufVA: e.Seg.VA}, nil, nil, 0)
	if err != nil {
		return 0, nil, err
	}
	return res.hdr.Length, RemoteRefOf(&res.hdr), nil
}

// ReadInline reads n bytes at off with the payload in-line in the reply.
// The caller charges the copy to the data's final destination (user buffer
// or client cache block), which is what distinguishes the Table 3 columns.
func (c *Client) ReadInline(p *sim.Proc, h *nas.Handle, off, n int64) (int64, *cache.RemoteRef, error) {
	res, err := c.call(p, &wire.Header{Op: wire.OpRead, FH: h.FH, Offset: off, Length: n}, nil, nil, 0)
	if err != nil {
		return 0, nil, err
	}
	return res.hdr.Length, RemoteRefOf(&res.hdr), nil
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
	res, err := c.call(p, &wire.Header{
		Op: wire.OpRead, FH: h.FH, Offset: offs[0], Length: n, BufVA: e.Seg.VA,
	}, offs[1:], nil, 0)
	if err != nil {
		return 0, err
	}
	return res.hdr.Length, nil
}

// Read implements nas.Client using the configured transfer mode.
func (c *Client) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	switch c.transfer {
	case Direct:
		got, _, err := c.ReadDirect(p, h, off, n, bufID)
		return got, err
	case Inline:
		// The DAFS user API delivers the payload zero-copy: the
		// application consumes it from the communication buffer. (Copying
		// into a separate destination — e.g. a cache block — is the
		// caller's cost; see Table 3's in-mem/in-cache split.)
		got, _, err := c.ReadInline(p, h, off, n)
		return got, err
	}
	panic("dafs: unknown transfer mode")
}

// Write implements nas.Client: the server pulls data from the registered
// buffer with an RDMA read (direct mode) or takes it in-line. The write
// is unstable: a write-behind server may hold it dirty until Commit.
func (c *Client) Write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	return c.write(p, h, off, n, bufID, 0)
}

// WriteStable is the FILE_SYNC write: the server destages the data to
// disk before replying, so the range needs no commit.
func (c *Client) WriteStable(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	return c.write(p, h, off, n, bufID, wire.FlagStable)
}

func (c *Client) write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64, flags uint8) (int64, error) {
	var res *completion
	var err error
	hdr := wire.Header{Op: wire.OpWrite, FH: h.FH, Offset: off, Length: n, Flags: flags}
	if c.transfer == Inline {
		c.h.Compute(p, c.h.CopyCost(n)) // user buffer -> comm buffer
		res, err = c.call(p, &hdr, nil, nil, n)
	} else {
		var e *nic.RegEntry
		if e, err = c.regs.Get(p, bufID, n); err != nil {
			return 0, err
		}
		hdr.BufVA = e.Seg.VA
		res, err = c.call(p, &hdr, nil, nil, 0)
	}
	if err != nil {
		return 0, err
	}
	if flags&wire.FlagStable == 0 {
		c.NoteUnstable(h.FH, off, res.hdr.Length, res.hdr.Verifier)
	}
	return res.hdr.Length, nil
}

// WriteData writes real bytes (content-verifying workloads).
func (c *Client) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	n := int64(len(data))
	c.h.Compute(p, c.h.CopyCost(n))
	res, err := c.call(p, &wire.Header{Op: wire.OpWrite, FH: h.FH, Offset: off, Length: n},
		nil, data, n)
	if err != nil {
		return 0, err
	}
	c.NoteUnstable(h.FH, off, res.hdr.Length, res.hdr.Verifier)
	return res.hdr.Length, nil
}

// Commit implements nas.Client: destage the range server-side, then
// compare the reply's write verifier against the one each uncommitted
// write was accepted under — ranges accepted by a server incarnation
// that has since crashed were lost, and are re-issued stably here before
// Commit returns.
func (c *Client) Commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	upTo := c.Snapshot() // writes replied after this are not covered
	res, err := c.call(p, &wire.Header{Op: wire.OpCommit, FH: h.FH, Offset: off, Length: n}, nil, nil, 0)
	if err != nil {
		return err
	}
	return c.ResolveCommit(h.FH, off, n, res.hdr.Verifier, upTo, func(r nas.WriteRange) error {
		_, werr := c.WriteStable(p, h, r.Off, r.N, nas.CommitBufID)
		return werr
	})
}
