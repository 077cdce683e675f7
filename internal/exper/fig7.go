package exper

import (
	"fmt"

	"danas/internal/core"
	"danas/internal/metrics"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/workload"
)

// Fig7BlockSizesKB is the x-axis: the client cache block size, which is
// the unit of network I/O in this experiment.
var Fig7BlockSizesKB = []int{4, 8, 16, 32, 64}

// Fig7 reproduces Figure 7: two clients sequentially read a large file
// (warm in the server cache) twice using a large application block size;
// the client cache block size — the unit of network I/O — sweeps 4 KB to
// 64 KB. Measured: aggregate server throughput during the second pass.
//
// Paper shapes: ODAFS saturates the server link at every block size
// except 64 KB (a GM get performance bug, reproduced behind a quirk flag);
// DAFS is server-CPU-bound at small blocks (~110 MB/s at 4 KB with
// interrupts, ~170 MB/s with polling) and approaches the link by 32 KB.
// The maximal ODAFS advantage at 4 KB is ~32% over polling DAFS.
func Fig7(scale Scale) *metrics.Table {
	t := metrics.NewTable("Figure 7: server throughput, two streaming clients",
		"cache block KB", "MB/s", "DAFS", "DAFS (polling)", "ODAFS")
	fileSize := scale.bytes(64 << 20)
	type cell struct {
		kb         int
		series     string
		ordma      bool
		serverPoll bool
	}
	var cells []cell
	for _, kb := range Fig7BlockSizesKB {
		cells = append(cells,
			cell{kb: kb, series: "DAFS"},
			cell{kb: kb, series: "ODAFS", ordma: true})
		if kb == 4 {
			// The paper reports the polling variant at the 4 KB point,
			// where the interrupt-bound gap is maximal.
			cells = append(cells, cell{kb: kb, series: "DAFS (polling)", serverPoll: true})
		}
	}
	results := RunCells(len(cells),
		func(i int) string { return fmt.Sprintf("fig7/%dKB/%s", cells[i].kb, cells[i].series) },
		func(i int) float64 {
			c := cells[i]
			return fig7Point(fileSize, int64(c.kb)*1024, c.ordma, c.serverPoll)
		})
	for i, c := range cells {
		t.Set(float64(c.kb), c.series, results[i])
	}
	return t
}

// fig7Point runs one cell: two clients, two passes, measuring aggregate
// second-pass throughput through the N-client barrier harness.
func fig7Point(fileSize, block int64, ordma, serverPoll bool) float64 {
	cfg := DefaultClusterConfig()
	cfg.Clients = 2
	cfg.ServerCacheBlockSize = block
	cfg.ServerCacheBlocks = int(fileSize/block) + 64
	cfg.Params.NICTLBSize = int(fileSize/4096) + 1024 // always hit, as §5.2 ensures
	if ordma {
		// Reproduce the paper's GM get bug at 64 KB transfers.
		cfg.Params.GMGetQuirkSize = 64 * 1024
	}
	cl := NewCluster(cfg)
	defer cl.Close()
	srv := cl.Shards[0]
	if serverPoll {
		srv.DAFS.Mode = nic.Poll
	}
	cl.CreateWarmFile("big", fileSize)

	appBlock := int64(256 * 1024) // "a large block size" (paper §5.2)
	if appBlock < block {
		appBlock = block
	}
	headers := int(fileSize/block) + 64
	dataBlocks := int(int64(8<<20) / block) // 8 MB of client data cache
	if dataBlocks < 8 {
		dataBlocks = 8
	}
	if dataBlocks > headers/2 {
		dataBlocks = headers / 2 // keep pass 2 missing locally
	}

	clients := make([]*core.Client, 2)
	for i := range clients {
		clients[i] = cl.CachedClient(i, core.Config{
			BlockSize:  block,
			DataBlocks: dataBlocks,
			Headers:    headers,
			UseORDMA:   ordma,
		})
	}
	pass := workload.StreamConfig{File: "big", BlockSize: appBlock, Window: 2, Passes: 1}
	res := workload.GoMulti(cl.S, workload.MultiSpec{
		Clients: 2,
		// Pass 1: populate caches and (for ODAFS) the directory.
		Warm: func(p *sim.Proc, i int) error {
			_, err := workload.Stream(p, clients[i], pass)
			return err
		},
		AtBarrier: func() {
			srv.NIC.TPT.WarmTLB()
			srv.NIC.Port().MarkEpoch()
		},
		// Pass 2: both clients stream together; aggregate is measured.
		Measured: func(p *sim.Proc, i int) (workload.StreamResult, error) {
			r, err := workload.Stream(p, clients[i], pass)
			if err != nil {
				return workload.StreamResult{}, err
			}
			return r[0], nil
		},
	})
	cl.Run()
	if res.Err != nil {
		panic(fmt.Sprintf("fig7: %v", res.Err))
	}
	return res.AggregateMBps()
}
