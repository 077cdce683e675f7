package exper

import (
	"fmt"

	"danas/internal/core"
	"danas/internal/metrics"
	"danas/internal/postmark"
	"danas/internal/sim"
)

// Fig6HitRatios is the x-axis: client cache hit ratio in percent.
var Fig6HitRatios = []int{25, 50, 75}

// Fig6 reproduces Figure 6: PostMark configured for read-only transactions
// over 4 KB files (each read bracketed by open/close, satisfied locally
// after the first open thanks to open delegations), with the client cache
// sized for 25%, 50% and 75% hit ratios, DAFS vs ODAFS.
//
// Paper shape: ODAFS yields ~34% higher transaction throughput than DAFS
// at every hit ratio, and its server CPU use falls to zero once the
// directory maps the server cache.
//
// Fig6 returns the transaction throughput table and its server-CPU
// companion — the series the paper quotes in prose (DAFS 30/25/20%
// falling; ODAFS ~0 once the directory is populated). Each cell computes
// both quantities.
func Fig6(scale Scale) (txns, cpu *metrics.Table) {
	txns = metrics.NewTable("Figure 6: PostMark read-only transaction throughput",
		"hit ratio %", "txns/s", "DAFS", "ODAFS")
	cpu = metrics.NewTable("Figure 6 companion: server CPU utilization",
		"hit ratio %", "percent", "DAFS", "ODAFS")
	files := scale.count(800)
	nTxns := scale.count(6000)
	for _, c := range fig6Cells(files, nTxns) {
		txns.Set(float64(c.ratio), c.name, c.tps)
		cpu.Set(float64(c.ratio), c.name, c.util*100)
	}
	return txns, cpu
}

// fig6Cell is one (hit ratio, system) PostMark run.
type fig6Cell struct {
	ratio     int
	name      string
	tps, util float64
}

// fig6Cells runs every Figure 6 cell through the job runner.
func fig6Cells(files, txns int) []fig6Cell {
	var specs []fig6Cell
	for _, ratio := range Fig6HitRatios {
		for _, ordma := range []bool{false, true} {
			name := "DAFS"
			if ordma {
				name = "ODAFS"
			}
			specs = append(specs, fig6Cell{ratio: ratio, name: name})
		}
	}
	return RunCells(len(specs),
		func(i int) string { return fmt.Sprintf("fig6/%d%%/%s", specs[i].ratio, specs[i].name) },
		func(i int) fig6Cell {
			c := specs[i]
			c.tps, c.util = fig6Point(files, txns, c.ratio, c.name == "ODAFS")
			return c
		})
}

// fig6Point runs one PostMark cell and returns (txns/s, server CPU util).
func fig6Point(files, txns, hitPercent int, ordma bool) (float64, float64) {
	ccfg := DefaultClusterConfig()
	ccfg.ServerCacheBlockSize = 4096
	ccfg.ServerCacheBlocks = 8 * files
	cl := NewCluster(ccfg)
	defer cl.Close()

	dataBlocks := files * hitPercent / 100
	if dataBlocks < 1 {
		dataBlocks = 1
	}
	client := cl.CachedClient(0, core.Config{
		BlockSize:  4096,
		DataBlocks: dataBlocks,
		Headers:    4 * files, // directory maps the whole file set
		UseORDMA:   ordma,
	})

	pmCfg := postmark.DefaultConfig()
	pmCfg.Files = files
	pmCfg.Transactions = txns

	srv := cl.Shards[0]
	var tps, util float64
	cl.Go("postmark", func(p *sim.Proc) {
		b := postmark.New(client, cl.Nodes[0].Host, pmCfg)
		tps = postmarkMeasured(p, "fig6", b, srv, srv.Host.CPU.MarkEpoch).TxnsPerSec()
		util = srv.Host.CPU.Utilization()
	})
	cl.Run()
	return tps, util
}

// postmarkMeasured runs the measured PostMark protocol of Figure 6 and
// ablations A3 and A6: set up the file set, run one warm pass — which
// fills the client cache to its steady state and, for ODAFS, collects
// references for every file accessed at least once (§5.2: "after the
// client has accessed each file") — warm srv's NIC TLB, call mark, and
// return the measured pass. tag prefixes its panics.
func postmarkMeasured(p *sim.Proc, tag string, b *postmark.Bench, srv *ServerShard, mark func()) postmark.Result {
	if err := b.Setup(p); err != nil {
		panic(fmt.Sprintf("%s: postmark setup: %v", tag, err))
	}
	if _, err := b.Run(p); err != nil {
		panic(fmt.Sprintf("%s: postmark warm: %v", tag, err))
	}
	srv.NIC.TPT.WarmTLB()
	mark()
	res, err := b.Run(p)
	if err != nil {
		panic(fmt.Sprintf("%s: postmark run: %v", tag, err))
	}
	return res
}
