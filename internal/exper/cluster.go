// Package exper is the benchmark harness: one experiment per table and
// figure of the paper's evaluation (§5), each regenerating the same
// rows/series the paper reports, plus ablations of the paper's design
// choices (ablations.go). The cmd/danas-bench binary and the bench
// module's host-cost workloads both drive this package.
package exper

import (
	"fmt"

	"danas/internal/core"
	"danas/internal/dafs"
	"danas/internal/fail"
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/netsim"
	"danas/internal/nfs"
	"danas/internal/nic"
	"danas/internal/obs"
	"danas/internal/sim"
	"danas/internal/stripe"
	"danas/internal/udpip"
	"danas/internal/wb"
)

// Scale shrinks experiment file sizes and operation counts uniformly so
// tests run fast; 1.0 is the benchmark default (which is itself reduced
// from paper scale; the steady states are identical).
type Scale float64

func (s Scale) bytes(n int64) int64 {
	v := int64(float64(n) * float64(s))
	if v < 1<<16 {
		v = 1 << 16
	}
	return v
}

func (s Scale) count(n int) int {
	v := int(float64(n) * float64(s))
	if v < 16 {
		v = 16
	}
	return v
}

// ClusterConfig describes the simulated testbed.
type ClusterConfig struct {
	Params *host.Params
	// Clients is the number of client hosts.
	Clients int
	// Shards is the number of NAS server machines the namespace is
	// striped across (0 or 1 = the paper's single server).
	Shards int
	// StripeUnit is the block-range striping unit for striped clients
	// (0 = ServerCacheBlockSize).
	StripeUnit int64
	// ServerCacheBlockSize and ServerCacheBlocks shape each server's file
	// cache.
	ServerCacheBlockSize int64
	ServerCacheBlocks    int
	// Optimistic creates ODAFS-capable DAFS servers.
	Optimistic bool
	// NFS adds an NFS/UDP server alongside each DAFS server.
	NFS bool
	// NFSWorkers is the nfsd worker pool size per shard.
	NFSWorkers int
	// WriteBehind gives every shard the write-behind/commit subsystem
	// (dirty tracking, background flusher, stable/unstable writes, write
	// verifier). False keeps the legacy semantics — a write is done once
	// its data is in the buffer cache — so pre-existing experiments are
	// untouched.
	WriteBehind bool
	// WBConfig tunes the flusher when WriteBehind is set (the zero value
	// selects wb.DefaultConfig).
	WBConfig wb.Config
	// Replicas gives every shard that many replica server machines
	// beyond the primary — complete NAS boxes, built exactly like the
	// primaries. 0 (the default) builds the pre-replication fleet.
	Replicas int
	// Racks is the failure-domain count replica placement rotates over
	// (stripe.Layout.Rack); 0 with Replicas > 0 defaults to Replicas+1
	// so no two copies of a shard share a rack.
	Racks int
	// Ack is the write acknowledgement policy of replicated mounts.
	Ack stripe.AckPolicy
	// Fabric selects the interconnect topology. The zero value keeps the
	// single central switch every pre-fabric experiment runs on.
	Fabric FabricConfig
}

// FabricConfig is the cluster-level interconnect spec: how many leaf
// and spine switches, and how oversubscribed each leaf's trunk bundle
// is. Racks map onto leaves (rack r's servers attach to leaf r mod
// Leaves), so rack-aware replica placement puts copies behind distinct
// leaves by construction; client machines round-robin across the
// server-free leaves.
type FabricConfig struct {
	// Leaves is the leaf-switch count; 0 or 1 keeps the single-switch
	// star (every other field is then ignored).
	Leaves int
	// Spines is the spine-switch count (default 1).
	Spines int
	// Oversub is the leaf oversubscription ratio N in N:1 — attached
	// host bandwidth over trunk bandwidth (default 1, non-blocking).
	Oversub int
	// LeafPorts caps host ports per leaf; 0 = uncapped.
	LeafPorts int
}

// multi reports whether the config asks for a real multi-leaf fabric.
func (fc FabricConfig) multi() bool { return fc.Leaves > 1 }

// topology lowers the config onto netsim, taking per-hop latencies and
// trunk framing from the paper's link parameters.
func (fc FabricConfig) topology(p *host.Params) netsim.Topology {
	spines, oversub := fc.Spines, fc.Oversub
	if spines < 1 {
		spines = 1
	}
	if oversub < 1 {
		oversub = 1
	}
	return netsim.Topology{
		Leaves:            fc.Leaves,
		LeafPorts:         fc.LeafPorts,
		Spines:            spines,
		Oversub:           oversub,
		DownlinkBandwidth: p.LinkBandwidth,
		TrunkOverhead:     p.FrameOverhead,
		LeafLatency:       p.SwitchLatency,
		SpineLatency:      p.SwitchLatency,
		TrunkProp:         p.LinkPropDelay,
	}
}

// DefaultClusterConfig mirrors the paper's testbed: four PCs, 2 Gb/s
// Myrinet (we allocate clients on demand).
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Params:               host.Default(),
		Clients:              1,
		Shards:               1,
		ServerCacheBlockSize: 16 * 1024,
		ServerCacheBlocks:    1 << 17,
		Optimistic:           true,
		NFS:                  true,
		NFSWorkers:           8,
	}
}

// ClientNode is one client machine.
type ClientNode struct {
	Host  *host.Host
	NIC   *nic.NIC
	Stack *udpip.Stack
}

// ServerShard is one NAS server machine: its own host CPU, NIC, link,
// UDP/IP stack, file system, disk, server cache, and protocol servers.
type ServerShard struct {
	Host  *host.Host
	NIC   *nic.NIC
	Stack *udpip.Stack
	FS    *fsim.FS
	Disk  *fsim.Disk
	Cache *fsim.ServerCache
	DAFS  *dafs.Server
	NFS   *nfs.Server
	// WB is the shard's write-behind subsystem (nil unless
	// ClusterConfig.WriteBehind).
	WB *wb.Flusher
}

// Cluster is the assembled testbed: one or more server shards plus client
// machines on a shared switched fabric. Single-server experiments reach
// the one server as Shards[0].
type Cluster struct {
	S   *sim.Scheduler
	P   *host.Params
	Fab *netsim.Fabric

	// Shards holds every primary server machine; Shards[0] is the
	// single-server experiments' server.
	Shards []*ServerShard

	// ReplicaSets holds every copy of every shard:
	// ReplicaSets[s][0] == Shards[s], and ReplicaSets[s][1..] are the
	// shard's replica machines (empty beyond copy 0 when unreplicated).
	ReplicaSets [][]*ServerShard

	// ServerHost and ServerNIC alias Shards[0].Host and Shards[0].NIC.
	// No code in this module reads them; they remain only for the bench
	// module's PostMark workload, which predates Shards.
	ServerHost *host.Host
	ServerNIC  *nic.NIC

	Nodes []*ClientNode

	stripeUnit  int64
	nextNFSPort int
	replicas    int
	racks       int
	ack         stripe.AckPolicy
	serverLeafs int // leaves occupied by servers; clients fill the rest
}

// NewCluster builds the testbed.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Params == nil {
		cfg.Params = host.Default()
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.StripeUnit <= 0 {
		cfg.StripeUnit = cfg.ServerCacheBlockSize
	}
	s := sim.New()
	p := cfg.Params
	var fab *netsim.Fabric
	if cfg.Fabric.multi() {
		fab = netsim.NewFabricWith(s, cfg.Fabric.topology(p))
	} else {
		fab = netsim.NewFabric(s, p.SwitchLatency)
	}
	line := netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}

	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	if cfg.Racks == 0 && cfg.Replicas > 0 {
		cfg.Racks = cfg.Replicas + 1
	}
	c := &Cluster{S: s, P: p, Fab: fab, stripeUnit: cfg.StripeUnit, nextNFSPort: 900,
		replicas: cfg.Replicas, racks: cfg.Racks, ack: cfg.Ack}
	// Racks map onto leaves: rack r attaches to leaf r mod Leaves, so
	// the degenerate star (and racks 0) puts every server on leaf 0 and
	// rack-aware replica placement crosses the spine by construction.
	racks := cfg.Racks
	if racks < 1 {
		racks = 1
	}
	c.serverLeafs = racks
	if c.serverLeafs > fab.Leaves() {
		c.serverLeafs = fab.Leaves()
	}
	serverLeaf := func(shard, copy int) int {
		if racks <= 1 {
			return 0
		}
		return ((shard + copy) % racks) % fab.Leaves()
	}
	buildServer := func(name string, leaf int) *ServerShard {
		sh := &ServerShard{}
		sh.Host = host.New(s, name, p)
		// Server CPU time — queueing included — attributes to traced
		// operations' server phase (client machines keep the zero value).
		sh.Host.CPUPhase = obs.PhaseServer
		sh.NIC = nic.New(sh.Host, fab.AddLeafPort(name, line, leaf))
		sh.Stack = udpip.NewStack(sh.NIC)
		sh.FS = fsim.NewFS()
		sh.Disk = fsim.NewDisk(s, name+"/disk", p.DiskSeek, p.DiskBW)
		sh.Cache = fsim.NewServerCache(sh.FS, sh.Disk, cfg.ServerCacheBlockSize, cfg.ServerCacheBlocks)
		sh.DAFS = dafs.NewServer(s, sh.NIC, sh.FS, sh.Cache, cfg.Optimistic)
		if cfg.NFS {
			sh.NFS = nfs.NewServer(s, sh.Stack, sh.FS, sh.Cache, cfg.NFSWorkers)
		}
		if cfg.WriteBehind {
			sh.WB = wb.NewFlusher(s, name, sh.Cache, sh.Disk, cfg.WBConfig)
			sh.DAFS.WB = sh.WB
			if sh.NFS != nil {
				sh.NFS.WB = sh.WB
			}
		}
		return sh
	}
	for i := 0; i < cfg.Shards; i++ {
		name := "server"
		if i > 0 {
			name = fmt.Sprintf("server%d", i+1)
		}
		sh := buildServer(name, serverLeaf(i, 0))
		c.Shards = append(c.Shards, sh)
		// Replica machines are built right after their primary, so an
		// unreplicated cluster's construction order — and with it every
		// downstream identifier — is untouched.
		set := []*ServerShard{sh}
		for r := 1; r <= cfg.Replicas; r++ {
			set = append(set, buildServer(fmt.Sprintf("%s-r%d", name, r), serverLeaf(i, r)))
		}
		c.ReplicaSets = append(c.ReplicaSets, set)
	}
	c.ServerHost, c.ServerNIC = c.Shards[0].Host, c.Shards[0].NIC
	for i := 0; i < cfg.Clients; i++ {
		c.AddClientNode()
	}
	return c
}

// Layout returns the cluster's striping scheme: one span per file when a
// single shard, block-range striping across all shards otherwise, with
// the replica/rack shape carried alongside (zero when unreplicated).
func (c *Cluster) Layout() stripe.Layout {
	var l stripe.Layout
	if len(c.Shards) == 1 {
		l = stripe.Single()
	} else {
		l = stripe.Layout{Shards: len(c.Shards), Unit: c.stripeUnit}
	}
	l.Replicas, l.Racks = c.replicas, c.racks
	return l
}

// Copy returns one copy of a shard's replica set (copy 0 = the primary).
func (c *Cluster) Copy(shard, copy int) *ServerShard { return c.ReplicaSets[shard][copy] }

// AddClientNode attaches another client machine to the fabric, on the
// leaf clientLeaf picks (leaf 0 on the star).
func (c *Cluster) AddClientNode() *ClientNode {
	name := fmt.Sprintf("client%d", len(c.Nodes)+1)
	line := netsim.LineConfig{Bandwidth: c.P.LinkBandwidth, Overhead: c.P.FrameOverhead, PropDelay: c.P.LinkPropDelay}
	h := host.New(c.S, name, c.P)
	n := nic.New(h, c.Fab.AddLeafPort(name, line, c.clientLeaf()))
	node := &ClientNode{Host: h, NIC: n, Stack: udpip.NewStack(n)}
	c.Nodes = append(c.Nodes, node)
	return node
}

// clientLeaf picks the leaf for the next client machine: round-robin
// over the leaves servers do not occupy, so client traffic to storage
// crosses the spine; if servers cover every leaf, round-robin over all.
func (c *Cluster) clientLeaf() int {
	leaves := c.Fab.Leaves()
	if leaves <= 1 {
		return 0
	}
	free := leaves - c.serverLeafs
	if free <= 0 {
		return len(c.Nodes) % leaves
	}
	return c.serverLeafs + len(c.Nodes)%free
}

// Close tears down the simulation.
func (c *Cluster) Close() { c.S.Close() }

// DAFSClient mounts a raw (uncached) DAFS client on node i against
// shard 0.
func (c *Cluster) DAFSClient(i int, mode nic.NotifyMode, tm dafs.TransferMode) *dafs.Client {
	return dafs.NewClient(c.S, c.Nodes[i].NIC, c.Shards[0].DAFS, mode, tm)
}

// CachedClient mounts a cached DAFS/ODAFS client on node i against
// shard 0.
func (c *Cluster) CachedClient(i int, cfg core.Config) *core.Client {
	return core.NewClient(c.S, c.Nodes[i].NIC, c.Shards[0].DAFS, nic.Poll, cfg)
}

// StripedCachedClient mounts a cached DAFS/ODAFS client on node i whose
// single block cache fronts every shard's DAFS server (per-shard ORDMA
// reference directories fall out of the static layout): the
// ReplicatedCachedClient under the cluster's ack policy, whose replica
// sets are single copies on an unreplicated cluster.
func (c *Cluster) StripedCachedClient(i int, cfg core.Config) *core.Client {
	return c.ReplicatedCachedClient(i, cfg, c.ack)
}

// StripedNFSClients mounts an NFS client of the given kind on node i
// routing per-block requests to every shard (the plain client when the
// cluster has one shard), returning the concrete per-shard sub-clients
// alongside the striped facade for retry configuration and counters.
func (c *Cluster) StripedNFSClients(i int, kind nfs.Kind) ([]*nfs.Client, nas.Client) {
	ncs := make([]*nfs.Client, 0, len(c.Shards))
	_, base := c.mountShards(1, c.ack, func(s, cp int) stripe.Session {
		nc := c.NFSClientForCopy(i, s, cp, kind)
		ncs = append(ncs, nc)
		return nc
	})
	return ncs, base
}

// StripedDAFSClient mounts a raw DAFS client on node i routing per-block
// requests to every shard (the plain client when the cluster has one
// shard).
func (c *Cluster) StripedDAFSClient(i int, mode nic.NotifyMode, tm dafs.TransferMode) nas.Client {
	_, base := c.mountShards(1, c.ack, func(s, cp int) stripe.Session {
		return dafs.NewClient(c.S, c.Nodes[i].NIC, c.ReplicaSets[s][cp].DAFS, mode, tm)
	})
	return base
}

// NFSClientForCopy mounts an NFS client of the given kind on node i
// against one copy of a shard's replica set (copy 0 = the primary) — the
// one NFS client constructor.
func (c *Cluster) NFSClientForCopy(i, shard, copy int, kind nfs.Kind) *nfs.Client {
	c.nextNFSPort++
	return nfs.NewClient(c.S, c.Nodes[i].Stack, c.nextNFSPort, c.ReplicaSets[shard][copy].Stack, kind)
}

// ReplicatedDAFSClient mounts a raw DAFS client on node i over the
// replicated fleet, one stripe.Group of per-copy sessions per shard.
func (c *Cluster) ReplicatedDAFSClient(i int, mode nic.NotifyMode, tm dafs.TransferMode, policy stripe.AckPolicy) ([]*dafs.Client, []*stripe.Group, nas.Client) {
	var dcs []*dafs.Client
	groups, base := c.mountShards(c.replicas+1, policy, func(s, cp int) stripe.Session {
		dc := dafs.NewClient(c.S, c.Nodes[i].NIC, c.ReplicaSets[s][cp].DAFS, mode, tm)
		dcs = append(dcs, dc)
		return dc
	})
	return dcs, groups, base
}

// mountShards mounts width copies of every shard through mountCopy —
// shard-major, copy-minor, so port allocation is deterministic. With
// more than one copy each shard becomes a stripe.Group under policy;
// the shards stripe under one facade (the lone shard's client itself
// when the cluster has one shard).
func (c *Cluster) mountShards(width int, policy stripe.AckPolicy, mountCopy func(shard, copy int) stripe.Session) ([]*stripe.Group, nas.Client) {
	var groups []*stripe.Group
	subs := make([]nas.Client, len(c.Shards))
	copies := make([]stripe.Session, width) // NewGroup keeps its own copy
	for s := range c.Shards {
		for cp := range copies {
			copies[cp] = mountCopy(s, cp)
		}
		subs[s] = copies[0]
		if width > 1 {
			g := stripe.NewGroup(policy, copies)
			groups = append(groups, g)
			subs[s] = g
		}
	}
	if len(subs) == 1 {
		return groups, subs[0]
	}
	return groups, stripe.NewClient(c.Layout(), subs)
}

// ReplicatedCachedClient mounts a cached DAFS/ODAFS client on node i
// over the replicated fleet: the client itself owns the per-shard
// replica routing (core.NewReplicatedClient) so one block cache and one
// reference directory front every copy.
func (c *Cluster) ReplicatedCachedClient(i int, cfg core.Config, policy stripe.AckPolicy) *core.Client {
	srvs := make([][]*dafs.Server, len(c.Shards))
	all := make([]*dafs.Server, 0, len(c.Shards)*(c.replicas+1))
	for s, set := range c.ReplicaSets {
		for _, sh := range set {
			all = append(all, sh.DAFS)
		}
		srvs[s] = all[len(all)-len(set) : len(all) : len(all)]
	}
	return core.NewReplicatedClient(c.S, c.Nodes[i].NIC, srvs, nic.Poll, cfg, c.Layout(), policy)
}

// Counters is a mount's client-side fault accounting.
type Counters struct {
	// Retried counts the faults the client absorbed transparently:
	// client-layer retransmissions plus ORDMA faults.
	Retried uint64
	// Timeouts counts calls that exhausted their retry budget and
	// failed (zero without a retry budget: callers block instead).
	Timeouts uint64
	// Failovers counts serving-copy switches; Reissued counts the
	// uncommitted ranges failover re-wrote onto surviving copies. Both
	// are zero on unreplicated mounts.
	Failovers, Reissued uint64
}

// Mount is one client machine's protocol mount: the protocol client
// itself plus the concrete clients its retry settings and counters
// reach.
type Mount struct {
	nas.Client
	// Cached is the DAFS/ODAFS block-caching client (nil for the NFS
	// variants).
	Cached *core.Client

	nfs       []*nfs.Client
	groups    []*stripe.Group
	multiLeaf bool
}

// Mount mounts a protocol by legend name (see ScalingSystems) on node
// i: over every copy, under the cluster's ack policy, when the cluster
// is replicated, and striped across the shards otherwise. cfg sizes the
// DAFS/ODAFS client cache; UseORDMA follows the name, and the NFS
// variants ignore cfg.
func (c *Cluster) Mount(system string, i int, cfg core.Config) *Mount {
	m := &Mount{multiLeaf: c.Fab.Leaves() > 1}
	switch {
	case system == "DAFS" || system == "ODAFS":
		cfg.UseORDMA = system == "ODAFS"
		m.Cached = c.StripedCachedClient(i, cfg)
		m.Client = m.Cached
	case c.replicas > 0:
		kind := nfsKindOf(system)
		m.groups, m.Client = c.mountShards(c.replicas+1, c.ack, func(s, cp int) stripe.Session {
			nc := c.NFSClientForCopy(i, s, cp, kind)
			m.nfs = append(m.nfs, nc)
			return nc
		})
	default:
		m.nfs, m.Client = c.StripedNFSClients(i, nfsKindOf(system))
	}
	return m
}

// SetRetry arms client-side recovery: RPC stacks and DAFS sessions
// retransmit with exponential backoff from rto and give up after
// budget attempts. On a multi-leaf fabric rto also bounds the cached
// client's RDMA descriptors, since a down switch can black-hole their
// frames — something the star cannot do.
func (m *Mount) SetRetry(rto sim.Duration, budget int) {
	if cc := m.Cached; cc != nil {
		cc.SetRetry(rto, budget)
		if m.multiLeaf {
			cc.SetRDMATimeout(rto)
		}
	}
	for _, nc := range m.nfs {
		nc.SetRetry(rto, budget)
	}
}

// Counters reads the mount's fault accounting.
func (m *Mount) Counters() Counters {
	if cc := m.Cached; cc != nil {
		return Counters{
			Retried:   cc.Retries() + cc.Stats().ORDMAFaults,
			Timeouts:  cc.TimedOuts(),
			Failovers: cc.Failovers(),
			Reissued:  cc.Reissued(),
		}
	}
	var n Counters
	for _, nc := range m.nfs {
		n.Retried += nc.Retransmits()
		n.Timeouts += nc.TimedOut()
	}
	for _, g := range m.groups {
		n.Failovers += g.Failovers
		n.Reissued += g.Reissued
	}
	return n
}

// CreateWarmFile creates a synthetic file and warms the server cache with
// it — the experiments' "file warm in the server cache" precondition —
// then pre-warms the NIC TLB when the server is optimistic (§5.2). On a
// sharded cluster the name is replicated to every shard (each shard
// serves only the block ranges it owns) and every shard is warmed.
func (c *Cluster) CreateWarmFile(name string, size int64) *fsim.File {
	var first *fsim.File
	for _, set := range c.ReplicaSets {
		// Shard-major, copy-minor: replica copies warm right after their
		// primary, in the same deterministic order they were built.
		for _, sh := range set {
			f, err := sh.FS.Create(name, size)
			if err != nil {
				panic(fmt.Sprintf("exper: create warm file: %v", err))
			}
			sh.Cache.Warm(f)
			sh.NIC.TPT.WarmTLB()
			if first == nil {
				first = f
			}
		}
	}
	return first
}

// Crash kills one copy of a shard's replica set, copy 0 the primary
// (failure injection, fail.Target): arriving and queued
// requests are discarded unexecuted, replies of requests already in the
// handlers are suppressed, kernel state (IP reassembly, the RPC
// duplicate-request cache) is lost, the file cache's contents are
// dropped, and every live TPT/ORDMA export is invalidated so
// outstanding client references fault — §4.2's lazy-consistency
// guarantee is exactly what makes a crash safe for direct access. The
// shard's NIC stays powered, so ORDMA gets fault back to their
// initiators through the NIC-to-NIC exception path instead of hanging
// them; RPC clients recover through their own retransmission.
func (c *Cluster) Crash(shard, copy int) {
	sh := c.ReplicaSets[shard][copy]
	sh.Stack.SetDown(true)
	sh.DAFS.SetDown(true)
	if sh.NFS != nil {
		sh.NFS.SetDown(true)
	}
	if sh.WB != nil {
		// Uncommitted dirty data dies with the host: discard the dirty
		// ledger and roll the write verifier, so clients comparing
		// verifiers at their next commit detect the loss and re-issue.
		sh.WB.Crash()
	}
	// Cold-start the file cache now: eviction hooks invalidate each
	// block's export, so clients holding references begin to fault
	// immediately, while the shard is still dark.
	sh.Cache.FlushAll()
}

// Restart brings a crashed copy of a shard back up with the cold caches
// the crash left behind; the file system itself (the disk) survives, so
// post-restart misses repopulate the cache through disk reads.
func (c *Cluster) Restart(shard, copy int) {
	sh := c.ReplicaSets[shard][copy]
	// Guarantee the cold-restart contract: a handler whose disk read
	// was already in flight at the crash instant slips past the
	// servers' down guards and inserts its block after the crash-time
	// flush; wipe any such resurrected blocks (and their exports)
	// before the shard answers again.
	sh.Cache.FlushAll()
	sh.Stack.SetDown(false)
	sh.DAFS.SetDown(false)
	if sh.NFS != nil {
		sh.NFS.SetDown(false)
	}
}

// DegradeLink clamps one copy's link to the given rate (both
// directions: the port's rate applies to its uplink serialization and
// to downlink serialization toward it).
func (c *Cluster) DegradeLink(shard, copy int, bytesPerSec float64) {
	c.ReplicaSets[shard][copy].NIC.Port().SetBandwidth(bytesPerSec)
}

// RestoreLink returns one copy's link to the configured full bandwidth.
func (c *Cluster) RestoreLink(shard, copy int) {
	c.ReplicaSets[shard][copy].NIC.Port().SetBandwidth(c.P.LinkBandwidth)
}

// LeafDown black-holes a leaf switch (fail.Target): every flow
// through it — its hosts' traffic in both directions — drops until
// LeafUp.
func (c *Cluster) LeafDown(i int) { c.Fab.SetLeafDown(i, true) }

// LeafUp restores a downed leaf switch.
func (c *Cluster) LeafUp(i int) { c.Fab.SetLeafDown(i, false) }

// SpineDown black-holes a spine switch (fail.Target): flows
// ECMP-hashed onto it drop until SpineUp; pairs hashed onto other
// spines are untouched.
func (c *Cluster) SpineDown(i int) { c.Fab.SetSpineDown(i, true) }

// SpineUp restores a downed spine switch.
func (c *Cluster) SpineUp(i int) { c.Fab.SetSpineDown(i, false) }

// DegradeTrunk clamps a leaf's trunk bundle to the given total rate per
// direction (fail.Target).
func (c *Cluster) DegradeTrunk(leaf int, bytesPerSec float64) { c.Fab.ClampTrunk(leaf, bytesPerSec) }

// RestoreTrunk returns a leaf's trunk bundle to its
// oversubscription-derived rate (fail.Target).
func (c *Cluster) RestoreTrunk(leaf int) { c.Fab.RestoreTrunk(leaf) }

// FailTopo is the fleet shape fault schedules validate against.
func (c *Cluster) FailTopo() fail.Topo {
	return fail.Topo{Shards: len(c.Shards), Leaves: c.Fab.Leaves(), Spines: c.Fab.Spines()}
}

// MarkServerEpochs restarts CPU, link, disk, and fabric-trunk
// utilization accounting on every shard — every copy of every shard
// when replicated (the sharded experiments' barrier action).
func (c *Cluster) MarkServerEpochs() {
	for _, set := range c.ReplicaSets {
		for _, sh := range set {
			sh.NIC.TPT.WarmTLB()
			sh.Host.CPU.MarkEpoch()
			sh.NIC.Port().MarkEpoch()
			sh.Disk.MarkEpoch()
		}
	}
	c.Fab.MarkEpoch()
}

// Run arms the fabric (every port must have a sink — the fail-fast
// misconfiguration check) and drives the simulation until quiescent.
func (c *Cluster) Run() {
	c.Fab.MustArm()
	c.S.Run()
}

// Go spawns a root process.
func (c *Cluster) Go(name string, fn func(p *sim.Proc)) { c.S.Go(name, fn) }

// clientFor builds the Figure 3–5 client by legend name on node i: the
// NFS variants through Mount, and DAFS as the paper's raw DAFS client,
// with no client cache in front of it.
func (c *Cluster) clientFor(system string, i int) nas.Client {
	if system == "DAFS" {
		return c.DAFSClient(i, nic.Poll, dafs.Direct)
	}
	return c.Mount(system, i, core.Config{}).Client
}

// nfsKindOf maps an NFS-variant legend name to its client kind.
func nfsKindOf(system string) nfs.Kind {
	switch system {
	case "NFS":
		return nfs.Standard
	case "NFS pre-posting":
		return nfs.PrePosting
	case "NFS hybrid":
		return nfs.Hybrid
	default:
		panic("exper: not an NFS system: " + system)
	}
}

// Systems lists the Figure 3/4/5 legend order: every protocol but ODAFS.
var Systems = ScalingSystems[:4:4]
