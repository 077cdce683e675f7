package exper

import (
	"fmt"
	"strings"

	"danas/internal/core"
	"danas/internal/metrics"
	"danas/internal/nas"
	"danas/internal/sim"
	"danas/internal/workload"
)

// GridClientCounts is the client axis of the clients×servers grid.
var GridClientCounts = []int{1, 2, 4, 8, 16, 32}

// GridShardCounts is the server axis: how many NAS shards the namespace
// is striped across.
var GridShardCounts = []int{1, 2, 4, 8}

// GridRow is one (system, clients, shards) cell of the sharded scale-out
// grid.
type GridRow struct {
	System  string
	Clients int
	Shards  int
	// AggMBps is aggregate fleet throughput over the measured pass
	// (barrier to last client completion).
	AggMBps float64
	// RespMicros is the mean per-read response time across all clients.
	RespMicros float64
	// ShardCPUPct and ShardLinkPct are each shard's CPU and uplink (tx)
	// utilization over the measured pass, indexed by shard.
	ShardCPUPct  []float64
	ShardLinkPct []float64
}

// MaxShardCPUPct returns the hottest shard's CPU utilization — where the
// fleet's server-CPU bottleneck sits.
func (r GridRow) MaxShardCPUPct() float64 { return maxOf(r.ShardCPUPct) }

func maxOf(vs []float64) float64 {
	var m float64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// ScalingGrid runs the "Figure 9" clients×servers grid: every protocol
// serves workgroups of 1..32 clients against fleets of 1, 2, 4 and 8 NAS
// shards, all clients streaming a shared file striped block-range across
// the fleet and warm in every shard's cache. Each cell reports aggregate
// throughput, mean per-read response time, and per-shard CPU/link
// utilization — the axes that show where each protocol's server-side
// bottleneck moves as servers are added.
func ScalingGrid(scale Scale) []GridRow {
	return ScalingGridOver(scale, GridClientCounts, GridShardCounts)
}

// ScalingGridOver runs the grid over explicit client and shard axes (the
// tests use reduced axes; ScalingGrid uses the full ones).
func ScalingGridOver(scale Scale, clientCounts, shardCounts []int) []GridRow {
	fileSize := scale.bytes(8 << 20)
	nj := len(shardCounts) * len(ScalingSystems)
	g := RunGrid(len(clientCounts), nj,
		func(ci, j int) string {
			return fmt.Sprintf("scaling-grid/%dclients/%dshards/%s",
				clientCounts[ci], shardCounts[j/len(ScalingSystems)], ScalingSystems[j%len(ScalingSystems)])
		},
		func(ci, j int) GridRow {
			return scalingCell(ScalingSystems[j%len(ScalingSystems)],
				clientCounts[ci], shardCounts[j/len(ScalingSystems)], fileSize, true)
		})
	return g.Flat()
}

// ScalingGridTables renders one aggregate-throughput table per shard
// count (x = clients, one column per system).
func ScalingGridTables(rows []GridRow) []*metrics.Table {
	byShards := map[int]*metrics.Table{}
	var order []int
	for _, r := range rows {
		t, ok := byShards[r.Shards]
		if !ok {
			t = metrics.NewTable(
				fmt.Sprintf("Figure 9: aggregate throughput, %d shard(s)", r.Shards),
				"clients", "MB/s", ScalingSystems...)
			byShards[r.Shards] = t
			order = append(order, r.Shards)
		}
		t.Set(float64(r.Clients), r.System, r.AggMBps)
	}
	out := make([]*metrics.Table, 0, len(order))
	for _, s := range order {
		out = append(out, byShards[s])
	}
	return out
}

// FormatScalingGrid renders the whole grid deterministically: the
// per-shard-count throughput tables followed by one detail line per cell
// carrying response time and every shard's CPU and link utilization.
func FormatScalingGrid(rows []GridRow) string {
	var b strings.Builder
	for _, t := range ScalingGridTables(rows) {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	b.WriteString("per-cell detail (resp = mean per-read us; cpu%/link% per shard):\n")
	cell := map[[2]int]map[string]GridRow{}
	var shardsSeen, clientsSeen []int
	for _, r := range rows {
		k := [2]int{r.Shards, r.Clients}
		if cell[k] == nil {
			cell[k] = map[string]GridRow{}
		}
		cell[k][r.System] = r
		shardsSeen = appendUniq(shardsSeen, r.Shards)
		clientsSeen = appendUniq(clientsSeen, r.Clients)
	}
	for _, s := range shardsSeen {
		for _, c := range clientsSeen {
			for _, sys := range ScalingSystems {
				r, ok := cell[[2]int{s, c}][sys]
				if !ok {
					continue
				}
				fmt.Fprintf(&b, "S=%d C=%-2d %-16s agg=%8.1f MB/s  resp=%8.1f us  cpu%%=%s link%%=%s\n",
					s, c, r.System, r.AggMBps, r.RespMicros,
					metrics.PctList(r.ShardCPUPct), metrics.PctList(r.ShardLinkPct))
			}
		}
	}
	return b.String()
}

func appendUniq(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

// scalingCell runs one (system, clients, shards) cell — the shared
// implementation behind both the Figure 8 client sweep (shards=1,
// stagger=false, preserving its original lockstep methodology) and the
// Figure 9 grid: n clients each stream the striped warm file once to
// warm caches (and, for ODAFS, the per-shard reference directories),
// rendezvous, then stream it again — staggered cells start each client
// a fraction of the file in so the fleet doesn't convoy on one shard —
// while every shard is measured.
func scalingCell(system string, clients, shards int, fileSize int64, stagger bool) GridRow {
	cfg := DefaultClusterConfig()
	cfg.Clients = clients
	cfg.Shards = shards
	cfg.ServerCacheBlockSize = scalingBlock
	cfg.StripeUnit = scalingBlock
	cfg.ServerCacheBlocks = int(fileSize/scalingBlock) + 64
	cfg.Params.NICTLBSize = int(fileSize/4096) + 1024 // always hit, as §5.2 ensures
	if cfg.NFSWorkers < clients {
		cfg.NFSWorkers = clients // one nfsd per client, the usual sizing
	}
	cl := NewCluster(cfg)
	defer cl.Close()
	cl.CreateWarmFile("big", fileSize)

	fileBlocks := int(fileSize / scalingBlock)
	headers := fileBlocks + 64
	dataBlocks := int(int64(8<<20) / scalingBlock) // 8 MB of client data cache
	if dataBlocks > fileBlocks/2 {
		dataBlocks = fileBlocks / 2 // keep the measured pass missing locally
	}
	if dataBlocks < 2 {
		dataBlocks = 2
	}
	nodes := make([]nas.Client, clients)
	for i := range nodes {
		nodes[i] = cl.Mount(system, i, core.Config{
			BlockSize:  scalingBlock,
			DataBlocks: dataBlocks,
			Headers:    headers,
		}).Client
	}

	// Stagger measured-pass start offsets so client k begins k/n of the
	// way into the file: with striping this spreads the instantaneous
	// load across shards instead of marching every client through the
	// same shard sequence in lockstep. Stream itself rounds StartOff down
	// to a block boundary, so no alignment here — flooring to a block
	// multiple would zero the stagger at reduced scales.
	stride := int64(0)
	if stagger {
		stride = fileSize / int64(clients)
	}

	var perOp metrics.Hist
	warm := workload.StreamConfig{File: "big", BlockSize: scalingAppBlock, Window: 2, Passes: 1}
	res := workload.GoMulti(cl.S, workload.MultiSpec{
		Clients: clients,
		Warm: func(p *sim.Proc, i int) error {
			_, err := workload.Stream(p, nodes[i], warm)
			return err
		},
		AtBarrier: cl.MarkServerEpochs,
		Measured: func(p *sim.Proc, i int) (workload.StreamResult, error) {
			pass := warm
			pass.PerOp = perOp.Observe // sim is single-threaded: safe to share
			pass.StartOff = int64(i) * stride
			r, err := workload.Stream(p, nodes[i], pass)
			if err != nil {
				return workload.StreamResult{}, err
			}
			return r[0], nil
		},
	})
	cl.Run()
	if res.Err != nil {
		panic(fmt.Sprintf("scaling-grid %s/%dc/%ds: %v", system, clients, shards, res.Err))
	}
	row := GridRow{
		System:     system,
		Clients:    clients,
		Shards:     shards,
		AggMBps:    res.AggregateMBps(),
		RespMicros: perOp.Mean().Micros(),
	}
	for _, sh := range cl.Shards {
		row.ShardCPUPct = append(row.ShardCPUPct, sh.Host.CPU.Utilization()*100)
		row.ShardLinkPct = append(row.ShardLinkPct, sh.NIC.Port().TxUtilization()*100)
	}
	return row
}
