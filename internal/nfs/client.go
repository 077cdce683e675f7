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

// Open implements nas.Client.
func (c *Client) Open(p *sim.Proc, name string) (*nas.Handle, error) {
	c.h.Syscall(p)
	c.h.Compute(p, c.h.P.NFSClientOp)
	resp, err := c.call(p, &wire.Header{Op: wire.OpOpen, Name: name}, rpc.CallOpts{})
	if err != nil {
		return nil, err
	}
	return &nas.Handle{FH: resp.Hdr.FH, Size: resp.Hdr.Length, Name: name}, nil
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

// Close implements nas.Client. NFS is stateless: close is local.
func (c *Client) Close(p *sim.Proc, h *nas.Handle) error {
	c.h.Syscall(p)
	return nil
}

// Read implements nas.Client, dispatching on the client kind. This is the
// vnode-layer read path of Figure 2 in the paper.
func (c *Client) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	c.h.Syscall(p)
	c.h.Compute(p, c.h.P.NFSClientOp)
	switch c.kind {
	case Standard:
		return c.readStandard(p, h, off, n)
	case PrePosting:
		return c.readPrePosting(p, h, off, n)
	case Hybrid:
		return c.readHybrid(p, h, off, n, bufID)
	}
	panic("nfs: unknown kind")
}

func (c *Client) readStandard(p *sim.Proc, h *nas.Handle, off, n int64) (int64, error) {
	resp, err := c.call(p, &wire.Header{Op: wire.OpRead, FH: h.FH, Offset: off, Length: n}, rpc.CallOpts{})
	if err != nil {
		return 0, err
	}
	got := resp.Hdr.Length
	// mbufs -> buffer cache, then buffer cache -> user buffer: the two
	// copies that saturate the client CPU at 65 MB/s in Figure 3.
	c.h.Compute(p, c.h.CacheCopyCost(got))
	c.h.Compute(p, c.h.P.CacheInsert)
	c.h.Compute(p, c.h.CopyCost(got))
	return got, nil
}

func (c *Client) readPrePosting(p *sim.Proc, h *nas.Handle, off, n int64) (int64, error) {
	// Pin the user buffer and pre-post it with the NIC, per I/O
	// (Figure 2, left column).
	reg, err := c.h.VM.Register(p, n)
	if err != nil {
		return 0, err
	}
	defer c.h.VM.Unregister(p, reg)
	hdr := wire.Header{Op: wire.OpRead, FH: h.FH, Offset: off, Length: n}
	resp, err := c.call(p, &hdr, rpc.CallOpts{Prepare: c.prePost})
	if err != nil {
		// Failed or timed-out call: reclaim the pre-posted buffer so a
		// dead shard does not leak NIC state.
		c.n.CancelPrePost(hdr.XID)
		return 0, err
	}
	got := resp.Hdr.Length
	if !resp.Direct {
		// The NIC could not match the tag (e.g. buffer too small):
		// fall back to the copy path so data is never lost.
		c.n.CancelPrePost(resp.Hdr.XID)
		c.h.Compute(p, c.h.CacheCopyCost(got))
		c.h.Compute(p, c.h.CopyCost(got))
	}
	return got, nil
}

// prePostReply hands the NIC a descriptor for the reply buffer the
// caller registered, tagged with the request's XID, and asks for that
// tag on the reply.
func (c *Client) prePostReply(req *wire.Header) uint64 {
	c.h.ComputeAsync(c.h.P.PIOWrite, nil) // hand descriptor to NIC
	c.n.PrePost(req.XID, req.Length)
	return req.XID
}

func (c *Client) readHybrid(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	e, err := c.regs.Get(p, bufID, n)
	if err != nil {
		return 0, err
	}
	resp, err := c.call(p, &wire.Header{
		Op: wire.OpRead, FH: h.FH, Offset: off, Length: n, BufVA: e.Seg.VA,
	}, rpc.CallOpts{})
	if err != nil {
		return 0, err
	}
	// Data was RDMA-written directly into the registered buffer before
	// the reply arrived; nothing to copy.
	return resp.Hdr.Length, nil
}

// Write implements nas.Client: an unstable write the server may hold
// dirty until Commit.
func (c *Client) Write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	return c.write(p, h, off, n, bufID, 0)
}

// WriteStable is the FILE_SYNC write: the server destages the data to
// disk before replying, so the range needs no commit.
func (c *Client) WriteStable(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	return c.write(p, h, off, n, bufID, wire.FlagStable)
}

func (c *Client) write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64, flags uint8) (int64, error) {
	c.h.Syscall(p)
	c.h.Compute(p, c.h.P.NFSClientOp)
	var resp *rpc.Response
	var err error
	hdr := wire.Header{Op: wire.OpWrite, FH: h.FH, Offset: off, Length: n, Flags: flags}
	switch c.kind {
	case Standard:
		// Copy user -> mbufs at the client; payload rides the RPC.
		resp, err = c.call(p, &hdr, rpc.CallOpts{PayloadBytes: n, CopyBytes: n})
	case PrePosting:
		// Outgoing path: gather DMA straight from the pinned user buffer.
		var reg *host.Registration
		reg, err = c.h.VM.Register(p, n)
		if err != nil {
			return 0, err
		}
		defer c.h.VM.Unregister(p, reg)
		resp, err = c.call(p, &hdr, rpc.CallOpts{PayloadBytes: n})
	case Hybrid:
		var e *nic.RegEntry
		e, err = c.regs.Get(p, bufID, n)
		if err != nil {
			return 0, err
		}
		hdr.BufVA = e.Seg.VA
		resp, err = c.call(p, &hdr, rpc.CallOpts{})
	default:
		panic("nfs: unknown kind")
	}
	if err != nil {
		return 0, err
	}
	if flags&wire.FlagStable == 0 {
		c.NoteUnstable(h.FH, off, resp.Hdr.Length, resp.Hdr.Verifier)
	}
	return resp.Hdr.Length, nil
}

// Commit implements nas.Client: destage the range server-side, then
// compare the reply's write verifier against the one each uncommitted
// write was accepted under — ranges accepted by a server incarnation
// that has since crashed were lost, and are re-issued stably here before
// Commit returns.
func (c *Client) Commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
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
