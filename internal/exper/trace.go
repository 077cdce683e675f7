package exper

import (
	"fmt"
	"strings"

	"danas/internal/metrics"
	"danas/internal/trace"
)

// TraceShardCounts is the server axis of the trace-replay experiment.
var TraceShardCounts = []int{1, 2, 4, 8}

// traceDepth is the replayer's bounded submission queue depth: enough
// for an open-loop run while a healthy protocol keeps up, small enough
// that a hopelessly overloaded cell degrades to bounded back-pressure
// (counted as stalls) instead of unbounded queue growth.
const traceDepth = 64

// BaseTraceGen returns the unscaled synthetic workload every replay
// experiment derives from: a Zipf-skewed (files and offsets) 70/30
// read/write mix arriving as a Poisson stream whose offered load is
// sized to press a single shard, so adding shards visibly drains the
// tail. Scenario specs embed this shape directly; experiments apply
// their -scale through ScaleGen.
func BaseTraceGen() trace.GenConfig {
	return trace.GenConfig{
		Ops:      4000,
		Files:    8,
		FileSize: 4 << 20,
		IOSize:   scalingBlock,
		ReadFrac: 0.7,
		FileZipf: 0.9,
		OffZipf:  0.9,
		Rate:     6000,
		Seed:     42,
	}
}

// ScaleGen applies the experiment scale to a workload configuration the
// way every replay experiment does: the operation count and file size
// shrink with the scale, the distribution shape stays fixed.
func ScaleGen(scale Scale, gen trace.GenConfig) trace.GenConfig {
	gen.Ops = scale.count(gen.Ops)
	gen.FileSize = scale.bytes(gen.FileSize)
	return gen
}

// TraceGen returns the deterministic synthetic trace configuration the
// trace experiment replays at the given scale.
func TraceGen(scale Scale) trace.GenConfig {
	return ScaleGen(scale, BaseTraceGen())
}

// TraceRow is one (system, shards) cell of the trace replay.
type TraceRow struct {
	System string
	Shards int
	// MBps is completed-byte throughput over the replay.
	MBps float64
	// P50/P95/P99Micros are response-time percentiles measured from
	// each operation's recorded arrival time (queueing included).
	P50Micros float64
	P95Micros float64
	P99Micros float64
	// Stalls counts submissions delayed past their arrival time by a
	// full queue (0 = the replay stayed open-loop).
	Stalls int64
	// MaxOutstanding is the deepest the submission queue got.
	MaxOutstanding int
	// ShardCPUPct and ShardLinkPct are per-shard utilization over the
	// replay, indexed by shard.
	ShardCPUPct  []float64
	ShardLinkPct []float64
}

// TraceReplay replays the synthetic trace over every protocol and fleet
// size: the open-loop driver issues each operation at its recorded
// arrival instant over an asynchronous client of depth traceDepth
// (nas.NewAsync, each admitted operation a task of the client's own)
// and reports throughput, latency percentiles and per-shard
// utilization per cell.
func TraceReplay(scale Scale) []TraceRow {
	return TraceReplayOver(scale, TraceShardCounts)
}

// TraceReplayOver runs the replay over an explicit shard axis (tests use
// reduced axes; TraceReplay uses the full one).
func TraceReplayOver(scale Scale, shardCounts []int) []TraceRow {
	gen := TraceGen(scale)
	g := RunGrid(len(shardCounts), len(ScalingSystems),
		func(i, j int) string {
			return fmt.Sprintf("trace/%dshards/%s", shardCounts[i], ScalingSystems[j])
		},
		func(i, j int) TraceRow {
			return traceCell(ScalingSystems[j], shardCounts[i], gen)
		})
	return g.Flat()
}

// replayClusterWith builds the cluster every replay cell drives: one
// client machine unless the hook asks for more, the traced files striped block-range across the
// shards and warm in every shard's cache, the nfsd pool matched to the
// queue depth. It also returns the block accounting the cached clients
// size themselves from. The configuration hook runs before the cluster
// is built and receives the traced footprint in cache blocks — the
// same figure the cluster is sized from, so derived knobs like water
// marks cannot desynchronize from the cluster actually built.
func replayClusterWith(tr trace.Trace, shards int, mutate func(cfg *ClusterConfig, fileBlocks int)) (cl *Cluster, fileBlocks, dataBlocks int) {
	extents := tr.Extents()
	var footprint int64
	for _, ext := range extents {
		footprint += ext.Size
	}
	cfg := DefaultClusterConfig()
	cfg.Clients = 1
	cfg.Shards = shards
	cfg.ServerCacheBlockSize = scalingBlock
	cfg.StripeUnit = scalingBlock
	cfg.ServerCacheBlocks = int(footprint/scalingBlock) + 64
	cfg.Params.NICTLBSize = int(footprint/4096) + 1024
	if cfg.NFSWorkers < traceDepth {
		cfg.NFSWorkers = traceDepth // one nfsd per queue slot
	}
	if mutate != nil {
		mutate(&cfg, int(footprint/scalingBlock))
	}
	cl = NewCluster(cfg)
	for _, ext := range extents {
		cl.CreateWarmFile(ext.File, ext.Size)
	}
	fileBlocks = int(footprint / scalingBlock)
	dataBlocks = max(fileBlocks/4, 2) // cache ~a quarter of the footprint: the Zipf hot set
	return cl, fileBlocks, dataBlocks
}

// traceCell replays the trace once: one client machine drives the
// sharded fleet, every traced file striped block-range across the
// shards and warm in every shard's cache.
func traceCell(system string, shards int, gen trace.GenConfig) TraceRow {
	sess := NewReplaySession(gen, ReplayConfig{System: system, Shards: shards})
	defer sess.Close()
	res, rerr := sess.Replay("trace-replay", nil)
	if rerr != nil {
		panic(fmt.Sprintf("trace %s/%ds: %v", system, shards, rerr))
	}
	m := sess.Measure(res, nil)
	return TraceRow{
		System:         system,
		Shards:         shards,
		MBps:           m.MBps,
		P50Micros:      m.P50Micros,
		P95Micros:      m.P95Micros,
		P99Micros:      m.P99Micros,
		Stalls:         m.Stalls,
		MaxOutstanding: m.MaxOutstanding,
		ShardCPUPct:    m.ShardCPUPct,
		ShardLinkPct:   m.ShardLinkPct,
	}
}

// TraceTables renders the replay as throughput and tail-latency tables
// (x = shards, one column per system).
func TraceTables(rows []TraceRow) (thr, p99 *metrics.Table) {
	thr = metrics.NewTable("Trace replay: completed throughput vs shards",
		"shards", "MB/s", ScalingSystems...)
	p99 = metrics.NewTable("Trace replay: p99 response time vs shards",
		"shards", "us", ScalingSystems...)
	for _, r := range rows {
		thr.Set(float64(r.Shards), r.System, r.MBps)
		p99.Set(float64(r.Shards), r.System, r.P99Micros)
	}
	return thr, p99
}

// FormatTraceReplay renders the replay deterministically: the summary
// tables followed by one detail line per cell carrying the full
// percentile set, queue behaviour, and every shard's utilization.
func FormatTraceReplay(rows []TraceRow) string {
	var b strings.Builder
	thr, p99 := TraceTables(rows)
	b.WriteString(thr.String())
	b.WriteString("\n")
	b.WriteString(p99.String())
	b.WriteString("\n")
	b.WriteString("per-cell detail (latency us from recorded arrival; stalls = closed-loop submissions):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "S=%d %-16s agg=%7.1f MB/s  p50=%8.1f p95=%8.1f p99=%8.1f  depth<=%-3d stalls=%-5d cpu%%=%s link%%=%s\n",
			r.Shards, r.System, r.MBps, r.P50Micros, r.P95Micros, r.P99Micros,
			r.MaxOutstanding, r.Stalls, metrics.PctList(r.ShardCPUPct), metrics.PctList(r.ShardLinkPct))
	}
	return b.String()
}
