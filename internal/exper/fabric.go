package exper

import (
	"fmt"
	"strings"

	"danas/internal/metrics"
	"danas/internal/trace"
)

// The fabric sweep is the switch-limited fleet experiment: the same
// storage fleet behind progressively oversubscribed leaf trunks, driven
// by client machines in the hundreds. It answers the question the
// single-switch experiments cannot pose — what binds first when the
// interconnect, not the server, is the scarce resource.
//
// Shape: every shard racks onto leaf 0 (no rack spec, so rack-aware
// placement degenerates to one storage leaf — the classic storage-pod
// layout), clients round-robin the remaining leaves, and all storage
// traffic funnels through leaf 0's trunk bundle. The client axis scales
// offered load linearly; the oversubscription axis shrinks the bundle
// 2 GB/s → 1 GB/s → 0.5 GB/s while per-shard links and CPUs are
// untouched, so any cell whose star twin is healthy but whose trunk
// pegs is switch-limited by construction.
const (
	// 4 leaves over 3 spines: the three client leaves each ECMP-hash
	// onto a distinct spine for their storage-leaf pair, so the trunk
	// bundle loads evenly and a saturated bundle reads as saturated
	// trunks, not one hot spine hiding behind two idle ones.
	fabricLeaves = 4
	fabricSpines = 3
	fabricShards = 8
	// fabricDepth is each client's bounded queue depth: shallow, so a
	// trunk-bound fleet shows up as stalls and tail growth rather than
	// one client's unbounded queue.
	fabricDepth = 8
	// fabricOps/fabricRate are per client; the fleet multiplies them.
	// 900 op/s of 16 KB I/O is ~14.4 MB/s offered per client: 48
	// clients offer ~0.7 GB/s and 192 offer ~2.8 GB/s, against a
	// storage-leaf trunk bundle of 2 GB/s at 1:1 down to 0.5 GB/s at
	// 4:1 per direction — the top cells oversaturate every bundle.
	fabricOps  = 256
	fabricRate = 900
)

// FabricOversubs is the oversubscription axis: 0 is the single-switch
// star baseline (the degenerate topology every other experiment runs
// on), N > 0 is a 4-leaf/3-spine fabric with N:1 leaf trunks.
var FabricOversubs = []int{0, 1, 2, 4}

// FabricClientCounts is the fleet-size axis.
var FabricClientCounts = []int{48, 96, 192}

// FabricSystems is the protocol axis (legend names).
var FabricSystems = []string{"NFS", "DAFS", "ODAFS"}

// FabricGen returns the per-client workload of the fabric sweep at the
// given scale: the standard Zipf read/write mix, resized from one
// trace-pressing client to hundreds of modest ones.
func FabricGen(scale Scale) trace.GenConfig {
	gen := BaseTraceGen()
	gen.Ops = fabricOps
	gen.Rate = fabricRate
	// Uniform, not Zipf: hundreds of independent clients aggregate to
	// an even spread over the fleet, so no single hot shard's 250 MB/s
	// link caps flow into the trunks before the bundle itself can — the
	// regime this sweep exists to measure.
	gen.FileZipf = 0
	gen.OffZipf = 0
	gen.Seed = 271828
	gen = ScaleGen(scale, gen)
	// Saturation needs a steady state: below 64 ops per client the
	// fleet's ramp and drain dominate the measured window and trunk
	// utilization reads low even when the bundle is the bottleneck.
	if gen.Ops < 64 {
		gen.Ops = 64
	}
	return gen
}

// FabricRow is one (oversub, clients, system) cell of the fabric sweep.
type FabricRow struct {
	System string
	// Oversub is the leaf trunk oversubscription ratio (0 = star).
	Oversub int
	Clients int
	// MBps is fleet-aggregate completed-byte throughput from the first
	// client's replay start to the last completion.
	MBps float64
	// P50/P95/P99Micros are fleet-wide response-time percentiles (every
	// client's histogram merged), measured from recorded arrivals.
	P50Micros float64
	P95Micros float64
	P99Micros float64
	// Stalls sums closed-loop submissions across the fleet.
	Stalls int64
	// MaxShardCPUPct is the hottest shard CPU over the replay — the
	// figure that stays below its star twin when the trunk binds.
	MaxShardCPUPct float64
	// TrunkUpPct/TrunkDownPct are the storage leaf's hottest trunk
	// utilization per direction; TrunkQueueMicros is the deepest trunk
	// backlog any frame saw at enqueue. All zero on the star.
	TrunkUpPct       float64
	TrunkDownPct     float64
	TrunkQueueMicros float64
	// Drops counts frames black-holed by down switches (zero here; the
	// sweep is fault-free).
	Drops uint64
}

// OversubLabel names an oversubscription ratio for tables ("star",
// "1:1", "2:1", ...).
func OversubLabel(o int) string {
	if o == 0 {
		return "star"
	}
	return fmt.Sprintf("%d:1", o)
}

// FabricSweep runs the switch-limited fleet sweep: every protocol and
// fleet size against the star and each oversubscribed fabric.
func FabricSweep(scale Scale) []FabricRow {
	return FabricSweepOver(scale, FabricClientCounts)
}

// FabricSweepOver runs the sweep over an explicit client-count axis
// (tests use reduced axes; FabricSweep uses the full one).
func FabricSweepOver(scale Scale, clientCounts []int) []FabricRow {
	gen := FabricGen(scale)
	ns, nc := len(FabricSystems), len(clientCounts)
	n := len(FabricOversubs) * nc * ns
	return RunCells(n,
		func(i int) string {
			o, c, s := FabricOversubs[i/(nc*ns)], clientCounts[i/ns%nc], FabricSystems[i%ns]
			return fmt.Sprintf("fabric/%s/%dc/%s", OversubLabel(o), c, s)
		},
		func(i int) FabricRow {
			o, c, s := FabricOversubs[i/(nc*ns)], clientCounts[i/ns%nc], FabricSystems[i%ns]
			return fabricCell(s, o, c, gen)
		})
}

// fabricCell runs one cell: clients machines replay one shared trace
// against the sharded fleet, their replay clocks staggered across one
// interarrival (see NewReplaySession), and the results pool into the
// fleet row beside the storage leaf's trunk accounting.
func fabricCell(system string, oversub, clients int, gen trace.GenConfig) FabricRow {
	cfg := ReplayConfig{System: system, Shards: fabricShards, Clients: clients, Depth: fabricDepth}
	if oversub > 0 {
		cfg.Fabric = FabricConfig{Leaves: fabricLeaves, Spines: fabricSpines, Oversub: oversub}
	}
	sess := NewReplaySession(gen, cfg)
	defer sess.Close()
	res, err := sess.Replay("fabric", nil)
	if err != nil {
		panic(fmt.Sprintf("fabric %s/%s/%dc: %v", system, OversubLabel(oversub), clients, err))
	}
	m := sess.Measure(res, nil)
	return FabricRow{
		System:           system,
		Oversub:          oversub,
		Clients:          clients,
		MBps:             m.MBps,
		P50Micros:        m.P50Micros,
		P95Micros:        m.P95Micros,
		P99Micros:        m.P99Micros,
		Stalls:           m.Stalls,
		MaxShardCPUPct:   maxOf(m.ShardCPUPct),
		TrunkUpPct:       m.TrunkUpPct,
		TrunkDownPct:     m.TrunkDownPct,
		TrunkQueueMicros: m.TrunkQueueMicros,
		Drops:            m.SwitchDrops,
	}
}

// FabricTables renders the sweep as one throughput table per protocol
// (x = clients, one column per topology).
func FabricTables(rows []FabricRow) []*metrics.Table {
	labels := make([]string, len(FabricOversubs))
	for i, o := range FabricOversubs {
		labels[i] = OversubLabel(o)
	}
	tables := make([]*metrics.Table, 0, len(FabricSystems))
	bySystem := make(map[string]*metrics.Table)
	for _, s := range FabricSystems {
		t := metrics.NewTable(
			fmt.Sprintf("Fabric sweep: %s aggregate throughput vs clients (%d shards on leaf 0)", s, fabricShards),
			"clients", "MB/s", labels...)
		bySystem[s] = t
		tables = append(tables, t)
	}
	for _, r := range rows {
		if t, ok := bySystem[r.System]; ok {
			t.Set(float64(r.Clients), OversubLabel(r.Oversub), r.MBps)
		}
	}
	return tables
}

// FormatFabric renders the sweep deterministically: the per-protocol
// throughput tables followed by one detail line per cell carrying the
// fleet percentiles, the hottest shard CPU, and the storage leaf's
// trunk accounting.
func FormatFabric(rows []FabricRow) string {
	var b strings.Builder
	for _, t := range FabricTables(rows) {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	b.WriteString("per-cell detail (trunk = storage leaf, hottest spine trunk per direction; q = max backlog at enqueue):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "o=%-4s C=%-3d %-6s agg=%7.1f MB/s  p50=%8.1f p95=%8.1f p99=%8.1f  stalls=%-6d cpu<=%5.1f%%  trunk up=%5.1f%% dn=%5.1f%% q=%9.1fus  drops=%d\n",
			OversubLabel(r.Oversub), r.Clients, r.System, r.MBps,
			r.P50Micros, r.P95Micros, r.P99Micros, r.Stalls, r.MaxShardCPUPct,
			r.TrunkUpPct, r.TrunkDownPct, r.TrunkQueueMicros, r.Drops)
	}
	return b.String()
}
