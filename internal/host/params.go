package host

import "danas/internal/sim"

// Params holds every cost-model constant in one place so the whole
// simulation is calibrated from a single table. Defaults model the paper's
// testbed — 1 GHz Pentium III, ServerWorks LE, FreeBSD 4.6, LANai9.2 on
// 64-bit/66 MHz PCI, 2 Gb/s Myrinet — and were tuned so the simulated
// gm_allsize/pingpong/netperf equivalents land on the paper's Table 2 and
// the Table 3 microbenchmark, as the table2 and table3 experiments
// (internal/exper) report. Everything
// else in the evaluation is prediction from these constants.
type Params struct {
	// ---- Network fabric ----

	// LinkBandwidth is the wire rate in bytes/s. 2 Gb/s = 250e6.
	LinkBandwidth float64
	// LinkPropDelay is the one-way cable propagation delay to the switch.
	LinkPropDelay sim.Duration
	// SwitchLatency is the store-and-forward latency through the switch.
	SwitchLatency sim.Duration
	// FrameOverhead is per-fragment wire framing (route header, CRC,
	// inter-frame gap expressed in byte times). With 4 KB GM fragments it
	// sets the 244/250 efficiency seen in Table 2.
	FrameOverhead int

	// ---- NIC (LANai9.2-class) ----

	// NICDMABandwidth is the NIC DMA engine rate across the PCI bus in
	// bytes/s. The paper measured 450 MB/s.
	NICDMABandwidth float64
	// NICFragProcess is LANai firmware processing per fragment
	// (send or receive side).
	NICFragProcess sim.Duration
	// NICGetProcess is target-NIC firmware work to serve one remote get
	// (descriptor fetch, TPT lookup machinery). It occupies the firmware
	// processor and therefore bounds the served-get rate.
	NICGetProcess sim.Duration
	// NICPutProcess is target-NIC firmware work to accept one remote put.
	NICPutProcess sim.Duration
	// NICPutLatency is pipeline-transparent startup latency of a put at
	// the source NIC (descriptor fetch, VI-GM put emulation overhead).
	// Later traffic on the same NIC is released behind it (per-connection
	// FIFO ordering: a reply sent after a put can never overtake the
	// data), but it occupies no station, so pipelined puts still saturate
	// the link. Calibrated against Table 3's "RPC direct read" row.
	NICPutLatency sim.Duration
	// NICGetLatency is pipeline-transparent latency added to a remote get
	// at the target NIC (descriptor DMA fetch, firmware scheduling). It
	// adds to response time but, unlike NICRDMAProcess, does not occupy
	// the firmware processor, so pipelined gets still saturate the link —
	// exactly the regime Figure 7 shows.
	NICGetLatency sim.Duration
	// GMGetQuirkSize reproduces the paper's "performance bug in GM get"
	// (§5.2): gets of at least this size suffer GMGetQuirkStall of extra
	// firmware time per fragment. Zero disables the quirk.
	GMGetQuirkSize  int64
	GMGetQuirkStall sim.Duration
	// NICTLBSize is the number of page translations the NIC caches
	// on board.
	NICTLBSize int
	// NICTLBMissCost is charged per TLB miss: the NIC interrupts the host,
	// which loads the TPT entry with a programmed-I/O write (§4.1). The
	// prototype's worst case was far larger (~9 ms when pages had to be
	// made resident); experiments that must always hit, as in the paper's
	// §5.2 setup, size the TLB accordingly.
	NICTLBMissCost sim.Duration
	// NICCapVerify is firmware time to verify a capability MAC on an
	// ORDMA request when capabilities are enabled (§4 safety; the paper's
	// prototype did not enable them).
	NICCapVerify sim.Duration
	// GMFragSize is the GM data-transfer MTU (LANai fragmentation unit).
	GMFragSize int
	// EtherMTU is the jumbo Ethernet-emulation MTU used by UDP/IP.
	EtherMTU int

	// ---- Host CPU / OS ----

	// MemCopyBW is a plain memcpy of payload data (bytes/s), including
	// cache-miss stalls on PC133-era memory.
	MemCopyBW float64
	// BufferCacheBW is the effective rate of a copy through the kernel
	// buffer cache (getblk, page mapping, and copy), slower than a raw
	// memcpy. Calibrated against standard NFS's 65 MB/s ceiling.
	BufferCacheBW float64
	// InterruptCost is taking a device interrupt: vector dispatch plus
	// handler prologue/epilogue.
	InterruptCost sim.Duration
	// SchedWakeup is waking a blocked thread and context-switching to it.
	SchedWakeup sim.Duration
	// SyscallCost is one user/kernel crossing.
	SyscallCost sim.Duration
	// PIOWrite is one programmed-I/O doorbell write to the NIC.
	PIOWrite sim.Duration
	// PollGet is consuming one completion by polling (no interrupt,
	// no reschedule).
	PollGet sim.Duration
	// GMSendCost is the host library cost of posting one user-level GM
	// send (descriptor build; the doorbell PIO is charged separately).
	GMSendCost sim.Duration
	// PageRegister is registering+pinning one page with the NIC via the
	// OS (TPT install). PageUnregister is the inverse.
	PageRegister   sim.Duration
	PageUnregister sim.Duration
	// PinnedPageLimit caps pages a process may pin (0 = unlimited); the
	// kernel clients' on-the-fly registration can fail against it (§3).
	PinnedPageLimit int64

	// ---- UDP/IP stack (Ethernet emulation path) ----

	// UDPSendPacket is IP+UDP output processing per packet (checksum
	// offloaded).
	UDPSendPacket sim.Duration
	// UDPRecvPacket is IP+UDP input processing per packet.
	UDPRecvPacket sim.Duration
	// IntrCoalesce is how many back-to-back received packets share one
	// interrupt (the NIC's coalescing window).
	IntrCoalesce int

	// ---- RPC / file protocol processing ----

	// RPCClientSend is client-side RPC marshal+send work per call;
	// RPCClientRecv is reply demux+unmarshal.
	RPCClientSend sim.Duration
	RPCClientRecv sim.Duration
	// RPCServerCost is server-side RPC receive-demux+dispatch per call.
	RPCServerCost sim.Duration
	// NFSServerOp is NFS protocol handler work per request (vnode ops,
	// permission checks) beyond cache copies.
	NFSServerOp sim.Duration
	// DAFSServerOp is the DAFS kernel server per-request handler work.
	DAFSServerOp sim.Duration
	// DAFSClientOp is DAFS user-level client per-request library work
	// (request build, descriptor management, aio completion handling).
	DAFSClientOp sim.Duration
	// NFSClientOp is kernel NFS client per-request work (vnode layer, nfsm
	// request construction).
	NFSClientOp sim.Duration
	// CacheInsert is file-cache block management per block insert
	// (allocation, hash insert, LRU maintenance).
	CacheInsert sim.Duration
	// CacheLookup is a file-cache hash probe.
	CacheLookup sim.Duration

	// ---- Server storage ----

	// DiskSeek is average positioning time for a cache-miss disk read;
	// DiskBW is media transfer rate.
	DiskSeek sim.Duration
	DiskBW   float64
}

// Default returns the calibrated parameter set; each field's comment in
// Params gives its meaning and source.
func Default() *Params {
	return &Params{
		LinkBandwidth: 250e6,
		LinkPropDelay: sim.Micros(0.3),
		SwitchLatency: sim.Micros(0.55),
		FrameOverhead: 100,

		NICDMABandwidth: 450e6,
		NICFragProcess:  sim.Micros(2.6),
		NICGetProcess:   sim.Micros(6.0),
		NICPutProcess:   sim.Micros(10.0),
		NICPutLatency:   sim.Micros(25.0),
		NICGetLatency:   sim.Micros(18.0),
		GMGetQuirkSize:  0,
		GMGetQuirkStall: sim.Micros(18.0),
		NICTLBSize:      4096,
		NICTLBMissCost:  sim.Micros(9.0),
		NICCapVerify:    sim.Micros(1.8),
		GMFragSize:      4096,
		EtherMTU:        9216,

		MemCopyBW:       270e6,
		BufferCacheBW:   110e6,
		InterruptCost:   sim.Micros(9.0),
		SchedWakeup:     sim.Micros(8.0),
		SyscallCost:     sim.Micros(2.0),
		PIOWrite:        sim.Micros(1.0),
		PollGet:         sim.Micros(2.0),
		GMSendCost:      sim.Micros(1.2),
		PageRegister:    sim.Micros(1.0),
		PageUnregister:  sim.Micros(0.5),
		PinnedPageLimit: 0,

		UDPSendPacket: sim.Micros(10.0),
		UDPRecvPacket: sim.Micros(8.0),
		IntrCoalesce:  4,

		RPCClientSend: sim.Micros(4.0),
		RPCClientRecv: sim.Micros(3.0),
		RPCServerCost: sim.Micros(6.0),
		NFSServerOp:   sim.Micros(8.0),
		DAFSServerOp:  sim.Micros(10.0),
		DAFSClientOp:  sim.Micros(16.0),
		NFSClientOp:   sim.Micros(6.0),
		CacheInsert:   sim.Micros(6.0),
		CacheLookup:   sim.Micros(1.0),

		DiskSeek: sim.Millis(6.5),
		DiskBW:   40e6,
	}
}

// PageSize is the host VM page size. The testbed's i386 page size.
const PageSize = 4096

// Pages returns how many pages a buffer of n bytes spans (worst case,
// unaligned).
func Pages(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize
}
