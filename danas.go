// Package danas is a simulation-backed reproduction of "Making the Most
// out of Direct-Access Network Attached Storage" (Magoutis, Addetia,
// Fedorova, Seltzer — FAST '03): five network-attached-storage client
// systems (standard NFS, NFS pre-posting, NFS hybrid, DAFS, Optimistic
// DAFS) over a deterministic discrete-event model of the paper's testbed
// (1 GHz PCs, 2 Gb/s Myrinet, LANai-class programmable NICs).
//
// The public API builds a simulated cluster, mounts clients that speak the
// real protocol state machines, runs application processes against them in
// virtual time, and exposes the measurements the paper reports (throughput,
// response time, CPU utilization, ORDMA outcome counters). A Cluster
// wraps the experiment harness's cluster (internal/exper), so façade
// mounts are built by the same code as every experiment's clients.
//
//	cl := danas.NewCluster()
//	defer cl.Close()
//	cl.CreateWarmFile("data", 64<<20)
//	m := cl.Mount(danas.ODAFS)
//	cl.Go("app", func(p *danas.Proc) {
//	    h, _ := m.Open(p, "data")
//	    buf := make([]byte, 65536)
//	    n, _ := m.ReadData(p, h, 0, buf)
//	    _ = n
//	})
//	cl.Run()
package danas

import (
	"fmt"

	"danas/internal/core"
	"danas/internal/exper"
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/sim"
)

// Re-exported simulation types: application code runs as processes in
// virtual time.
type (
	// Proc is a simulated process; all client calls take one.
	Proc = sim.Proc
	// Duration is simulated time in nanoseconds.
	Duration = sim.Duration
	// Time is absolute simulated time.
	Time = sim.Time
	// Handle is an open file.
	Handle = nas.Handle
	// Client is the protocol-independent file client interface.
	Client = nas.Client
	// Params is the calibrated cost-model parameter table.
	Params = host.Params
	// HostMachine is a simulated machine (CPU + OS cost model).
	HostMachine = host.Host
	// ContentSource materializes file bytes after simulated transfers.
	ContentSource = nas.ContentSource
	// ODAFSStats counts Optimistic DAFS outcomes (ORDMA reads, faults,
	// RPC fallbacks, local hits).
	ODAFSStats = core.Stats
)

// Convenient duration units (simulated time).
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultParams returns the parameter table calibrated against the paper's
// Table 2 and Table 3 (each constant is documented in internal/host/params.go).
func DefaultParams() *Params { return host.Default() }

// Protocol selects a client system from the paper.
type Protocol int

const (
	// NFS is the unmodified kernel NFS baseline (copies through the
	// buffer cache, UDP/IP).
	NFS Protocol = iota
	// NFSPrePosting is the RDDP-RPC client: per-I/O pinned, pre-posted
	// user buffers with NIC header splitting (paper §3.2).
	NFSPrePosting
	// NFSHybrid is the RDDP-RDMA kernel client: buffer advertisement in
	// the NFS wire protocol, server-initiated RDMA (paper §3.1).
	NFSHybrid
	// DAFS is the user-level Direct Access File System client.
	DAFS
	// ODAFS is Optimistic DAFS: DAFS plus client-initiated ORDMA against
	// piggybacked server memory references (paper §4 — the contribution).
	ODAFS
)

func (pr Protocol) String() string {
	switch pr {
	case NFS:
		return "NFS"
	case NFSPrePosting:
		return "NFS pre-posting"
	case NFSHybrid:
		return "NFS hybrid"
	case DAFS:
		return "DAFS"
	case ODAFS:
		return "ODAFS"
	default:
		return fmt.Sprintf("protocol(%d)", int(pr))
	}
}

// Cluster is a simulated testbed: one server machine (one unreplicated
// exper.Cluster shard running NFS and DAFS side by side) plus one client
// machine per mount, joined by a 2 Gb/s switched fabric.
type Cluster struct {
	cl  *exper.Cluster
	srv *exper.ServerShard // cl.Shards[0], the one server
}

// ClusterOption configures NewCluster.
type ClusterOption func(*exper.ClusterConfig)

// WithParams overrides the cost-model parameters.
func WithParams(p *Params) ClusterOption {
	return func(c *exper.ClusterConfig) { c.Params = p }
}

// WithServerCache sets the server file cache geometry.
func WithServerCache(blockSize int64, blocks int) ClusterOption {
	return func(c *exper.ClusterConfig) { c.ServerCacheBlockSize = blockSize; c.ServerCacheBlocks = blocks }
}

// WithPlainServer disables the ODAFS export manager (no piggybacked
// references; ODAFS mounts degrade to DAFS behaviour).
func WithPlainServer() ClusterOption {
	return func(c *exper.ClusterConfig) { c.Optimistic = false }
}

// WithNFSWorkers sets the nfsd worker pool size.
func WithNFSWorkers(n int) ClusterOption {
	return func(c *exper.ClusterConfig) { c.NFSWorkers = n }
}

// NewCluster builds a testbed with a server and no mounts.
func NewCluster(opts ...ClusterOption) *Cluster {
	cfg := exper.ClusterConfig{
		Params:               host.Default(),
		Shards:               1,
		ServerCacheBlockSize: 16 * 1024,
		ServerCacheBlocks:    1 << 16,
		Optimistic:           true,
		NFS:                  true,
		NFSWorkers:           8,
	}
	for _, o := range opts {
		o(&cfg)
	}
	cl := exper.NewCluster(cfg)
	return &Cluster{cl: cl, srv: cl.Shards[0]}
}

// Close tears the simulation down; the cluster must not be used after.
func (c *Cluster) Close() { c.cl.Close() }

// Params returns the live parameter table (mutable before mounts are
// created).
func (c *Cluster) Params() *Params { return c.cl.P }

// Go spawns an application process at the current simulated time.
func (c *Cluster) Go(name string, fn func(p *Proc)) { c.cl.Go(name, fn) }

// Barrier is a one-shot rendezvous for coordinating application processes
// (e.g. starting a measured phase on all clients simultaneously).
type Barrier struct{ sig *sim.Signal }

// NewBarrier creates an unreleased barrier on the cluster's clock.
func NewBarrier(c *Cluster) *Barrier { return &Barrier{sig: sim.NewSignal(c.cl.S)} }

// Release lets all current and future waiters proceed.
func (b *Barrier) Release() { b.sig.Fire() }

// Wait blocks p until the barrier is released.
func (b *Barrier) Wait(p *Proc) { b.sig.Wait(p) }

// Run advances the simulation until no work remains.
func (c *Cluster) Run() { c.cl.Run() }

// Now returns the simulated clock.
func (c *Cluster) Now() Time { return c.cl.S.Now() }

// CreateFile creates a file with deterministic synthetic content on the
// server.
func (c *Cluster) CreateFile(name string, size int64) error {
	_, err := c.srv.FS.Create(name, size)
	return err
}

// CreateWarmFile creates a file and warms the server cache (and, for an
// optimistic server, the NIC TLB) with it — the paper's standard
// experiment precondition.
func (c *Cluster) CreateWarmFile(name string, size int64) error {
	f, err := c.srv.FS.Create(name, size)
	if err != nil {
		return err
	}
	c.srv.Cache.Warm(f)
	c.srv.NIC.TPT.WarmTLB()
	return nil
}

// ContentSource returns the server file system's content back-channel,
// needed by applications (like the embedded database) that consume real
// bytes.
func (c *Cluster) ContentSource() ContentSource { return c.srv.FS }

// ServerCPUUtilization reports server CPU utilization since the last
// MarkServerEpoch.
func (c *Cluster) ServerCPUUtilization() float64 { return c.srv.Host.CPU.Utilization() }

// ServerLinkTxUtilization reports the server uplink utilization since the
// last MarkServerEpoch.
func (c *Cluster) ServerLinkTxUtilization() float64 { return c.srv.NIC.Port().TxUtilization() }

// MarkServerEpoch restarts server-side utilization accounting.
func (c *Cluster) MarkServerEpoch() {
	c.srv.Host.CPU.MarkEpoch()
	c.srv.NIC.Port().MarkEpoch()
}

// ServerNICExceptions returns the count of ORDMA exceptions the server NIC
// has signalled.
func (c *Cluster) ServerNICExceptions() uint64 { return c.srv.NIC.StatsSnapshot().Exceptions }

// MountOption configures a Mount.
type MountOption func(*core.Config)

// WithClientCache sets the DAFS/ODAFS client file cache geometry: block
// size, data blocks, and headers (the ORDMA reference directory reach).
func WithClientCache(blockSize int64, dataBlocks, headers int) MountOption {
	return func(m *core.Config) {
		m.BlockSize = blockSize
		m.DataBlocks = dataBlocks
		m.Headers = headers
	}
}

// WithInlineTransfers makes the DAFS/ODAFS RPC path carry payloads in-line
// instead of by server-initiated RDMA.
func WithInlineTransfers() MountOption {
	return func(m *core.Config) { m.InlineRPC = true }
}

// WithMQDirectory selects multi-queue replacement for the ODAFS reference
// directory (default LRU).
func WithMQDirectory() MountOption {
	return func(m *core.Config) { m.MQDirectory = true }
}

// Mount is a client machine with one protocol mount.
type Mount struct {
	Protocol Protocol
	client   nas.Client
	h        *host.Host
	cached   *core.Client // non-nil for DAFS/ODAFS mounts
	fs       *fsim.FS
}

// Mount adds a client machine running the given protocol. DAFS and ODAFS
// mounts interpose the user-level file cache (open delegations + block
// cache); ODAFS additionally maintains the ORDMA reference directory.
func (c *Cluster) Mount(proto Protocol, opts ...MountOption) *Mount {
	if proto < NFS || proto > ODAFS {
		panic("danas: unknown protocol")
	}
	cfg := core.Config{BlockSize: 4096, DataBlocks: 1024, Headers: 1 << 16}
	for _, o := range opts {
		o(&cfg)
	}
	node := c.cl.AddClientNode()
	em := c.cl.Mount(proto.String(), len(c.cl.Nodes)-1, cfg)
	return &Mount{Protocol: proto, client: em.Client, h: node.Host, cached: em.Cached, fs: c.srv.FS}
}

// Open resolves a file by name.
func (m *Mount) Open(p *Proc, name string) (*Handle, error) { return m.client.Open(p, name) }

// Read transfers n bytes (timing only; see ReadData for contents).
func (m *Mount) Read(p *Proc, h *Handle, off, n int64) (int64, error) {
	return m.client.Read(p, h, off, n, 1)
}

// ReadData reads len(buf) bytes at off and materializes the contents.
func (m *Mount) ReadData(p *Proc, h *Handle, off int64, buf []byte) (int, error) {
	return nas.ReadData(p, m.client, m.fs, h, off, buf, 1)
}

// Write transfers n bytes of synthetic data.
func (m *Mount) Write(p *Proc, h *Handle, off, n int64) (int64, error) {
	return m.client.Write(p, h, off, n, 1)
}

// WriteData writes real bytes.
func (m *Mount) WriteData(p *Proc, h *Handle, off int64, data []byte) (int64, error) {
	return m.client.WriteData(p, h, off, data)
}

// Commit makes earlier writes to [off, off+n) durable, NFSv3-style
// (n <= 0 commits the whole file). Against a server without
// write-behind it is a no-op.
func (m *Mount) Commit(p *Proc, h *Handle, off, n int64) error {
	return m.client.Commit(p, h, off, n)
}

// Getattr returns the current file size.
func (m *Mount) Getattr(p *Proc, h *Handle) (int64, error) { return m.client.Getattr(p, h) }

// Create makes a new file.
func (m *Mount) Create(p *Proc, name string) (*Handle, error) { return m.client.Create(p, name) }

// Remove deletes a file.
func (m *Mount) Remove(p *Proc, name string) error { return m.client.Remove(p, name) }

// Close releases a handle.
func (m *Mount) Close(p *Proc, h *Handle) error { return m.client.Close(p, h) }

// NASClient exposes the underlying protocol client (for the workload and
// benchmark packages).
func (m *Mount) NASClient() Client { return m.client }

// Host returns the client machine (for charging application CPU work).
func (m *Mount) Host() *HostMachine { return m.h }

// ClientCPUUtilization reports this client machine's CPU utilization since
// MarkClientEpoch.
func (m *Mount) ClientCPUUtilization() float64 { return m.h.CPU.Utilization() }

// MarkClientEpoch restarts client utilization accounting.
func (m *Mount) MarkClientEpoch() { m.h.CPU.MarkEpoch() }

// ODAFSStats returns ORDMA outcome counters (zero value for non-cached
// mounts).
func (m *Mount) ODAFSStats() ODAFSStats {
	if m.cached == nil {
		return ODAFSStats{}
	}
	return m.cached.Stats()
}
