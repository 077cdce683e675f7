package exper

import (
	"fmt"

	"danas/internal/metrics"
)

// ScalingClientCounts is the x-axis of the scale-out sweep: the number of
// concurrent streaming clients attached to the one server.
var ScalingClientCounts = []int{1, 2, 4, 8, 16, 32}

// ScalingSystems lists all five evaluated protocols, in legend order.
var ScalingSystems = []string{"NFS", "NFS pre-posting", "NFS hybrid", "DAFS", "ODAFS"}

// scalingBlock is the unit of network I/O: the client cache block size
// for the cached (O)DAFS clients and the server cache block size for
// everyone. 16 KB sits in the region where Figure 7 shows DAFS
// server-CPU-bound and ODAFS link-bound, so the protocols separate.
const scalingBlock = 16 * 1024

// scalingAppBlock is the application read size ("a large block size",
// §5.2); the RDDP systems saturate the link at 64 KB in Figure 3.
const scalingAppBlock = 64 * 1024

// Scaling runs the "Figure 8"-style multi-client scale-out experiment the
// paper stops short of (§5.2 ends at two clients): every protocol serves
// a growing client workgroup, all clients streaming a file warm in the
// server cache, generalizing Figure 7's two-client barrier pattern to N
// clients. Reported per cell: aggregate throughput, mean per-op response
// time, and server CPU and link utilization — the axes along which one
// server saturates as the workgroup grows.
//
// Each cell is the one-shard grid cell, run in lockstep (no stagger —
// the original Figure 8 methodology): n clients each stream the shared
// warm file once to warm caches (and, for ODAFS, the reference
// directory), rendezvous, then stream it again together while the one
// server is measured.
func Scaling(scale Scale) []GridRow {
	fileSize := scale.bytes(8 << 20)
	g := RunGrid(len(ScalingClientCounts), len(ScalingSystems),
		func(ci, si int) string {
			return fmt.Sprintf("scaling/%dclients/%s", ScalingClientCounts[ci], ScalingSystems[si])
		},
		func(ci, si int) GridRow {
			return scalingCell(ScalingSystems[si], ScalingClientCounts[ci], 1, fileSize, false)
		})
	return g.Flat()
}

// ScalingTables renders the sweep as one table per measured quantity.
// Utilization columns read the one shard, Shards[0].
func ScalingTables(rows []GridRow) (thr, resp, cpu, link *metrics.Table) {
	thr = metrics.NewTable("Figure 8: aggregate server throughput vs client count",
		"clients", "MB/s", ScalingSystems...)
	resp = metrics.NewTable("Figure 8 companion: mean per-read response time",
		"clients", "us", ScalingSystems...)
	cpu = metrics.NewTable("Figure 8 companion: server CPU utilization",
		"clients", "percent", ScalingSystems...)
	link = metrics.NewTable("Figure 8 companion: server link (tx) utilization",
		"clients", "percent", ScalingSystems...)
	for _, r := range rows {
		x := float64(r.Clients)
		thr.Set(x, r.System, r.AggMBps)
		resp.Set(x, r.System, r.RespMicros)
		cpu.Set(x, r.System, r.ShardCPUPct[0])
		link.Set(x, r.System, r.ShardLinkPct[0])
	}
	return thr, resp, cpu, link
}
