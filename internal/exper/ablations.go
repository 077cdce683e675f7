package exper

import (
	"fmt"

	"danas/internal/core"
	"danas/internal/dafs"
	"danas/internal/metrics"
	"danas/internal/nic"
	"danas/internal/postmark"
	"danas/internal/sim"
)

// AblationTLB sweeps the NIC TLB miss cost while the working set exceeds
// the TLB, quantifying §4.1/§5.2's claim that TLB misses (an interrupt plus
// a host PIO reload; ~9 us in our calibration, approaching milliseconds in
// the prototype's worst case) dominate ORDMA response time when locality is
// poor.
func AblationTLB(scale Scale) *metrics.Table {
	t := metrics.NewTable("Ablation A1: ORDMA latency vs NIC TLB miss cost (thrashing TLB)",
		"miss cost us", "us", "mean latency (us)", "miss rate %")
	n := scale.count(256)
	missCosts := []float64{9, 50, 200, 1000, 9000}
	type cell struct{ mean, missRate float64 }
	results := RunCells(len(missCosts),
		func(i int) string { return fmt.Sprintf("ablationA1/miss%.0fus", missCosts[i]) },
		func(i int) cell {
			var c cell
			c.mean, c.missRate = ablationTLBPoint(n, missCosts[i])
			return c
		})
	for i, missUS := range missCosts {
		t.Set(missUS, "mean latency (us)", results[i].mean)
		t.Set(missUS, "miss rate %", results[i].missRate*100)
	}
	return t
}

func ablationTLBPoint(n int, missUS float64) (meanUS, missRate float64) {
	cfg := DefaultClusterConfig()
	cfg.ServerCacheBlockSize = 4096
	cfg.ServerCacheBlocks = 4 * n
	cfg.Params.NICTLBMissCost = sim.Micros(missUS)
	cfg.Params.NICTLBSize = 16 // far below the working set: thrash
	cl := NewCluster(cfg)
	defer cl.Close()
	fileSize := int64(n) * 4096
	srv := cl.Shards[0]
	f, err := srv.FS.Create("a1", fileSize)
	if err != nil {
		panic(fmt.Sprintf("a1: create: %v", err))
	}
	srv.Cache.Warm(f) // exports installed; TLB deliberately cold

	client := cl.DAFSClient(0, nic.Poll, dafs.Inline)
	var hist metrics.Hist
	cl.Go("bench", func(p *sim.Proc) {
		h, _ := client.Open(p, "a1")
		ordmaGets(p, client, collectRefs(p, client, h, n), &hist)
	})
	cl.Run()
	st := srv.NIC.StatsSnapshot()
	total := st.TLBHits + st.TLBMisses
	return hist.Mean().Micros(), float64(st.TLBMisses) / float64(total)
}

// AblationCapability measures the latency and safety cost of enabling
// capabilities (keyed MAC per exported segment, §4 "Ensuring safety") —
// the feature the paper's prototype left unimplemented.
func AblationCapability(scale Scale) *metrics.Table {
	t := metrics.NewTable("Ablation A2: ORDMA 4KB read latency with capabilities",
		"capabilities (0=off,1=on)", "us", "mean latency (us)")
	n := scale.count(256)
	names := []string{"ablationA2/caps-off", "ablationA2/caps-on"}
	results := RunCells(len(names),
		func(i int) string { return names[i] },
		func(i int) float64 { return ablationCapPoint(n, i == 1) })
	t.Set(0, "mean latency (us)", results[0])
	t.Set(1, "mean latency (us)", results[1])
	return t
}

func ablationCapPoint(n int, capsOn bool) float64 {
	cfg := DefaultClusterConfig()
	cfg.ServerCacheBlockSize = 4096
	cfg.ServerCacheBlocks = 4 * n
	cl := NewCluster(cfg)
	defer cl.Close()
	srv := cl.Shards[0]
	srv.NIC.TPT.UseCapabilities = capsOn
	cl.CreateWarmFile("a2", int64(n)*4096)
	client := cl.DAFSClient(0, nic.Poll, dafs.Inline)
	var hist metrics.Hist
	cl.Go("bench", func(p *sim.Proc) {
		h, _ := client.Open(p, "a2")
		refs := collectRefs(p, client, h, n)
		srv.NIC.TPT.WarmTLB()
		ordmaGets(p, client, refs, &hist)
	})
	cl.Run()
	return hist.Mean().Micros()
}

// AblationDirectory compares LRU and MQ replacement for the ORDMA
// reference directory under a skewed (80/20) PostMark file popularity —
// the policy choice §4.2 discusses, citing the multi-queue algorithm.
func AblationDirectory(scale Scale) *metrics.Table {
	t := metrics.NewTable("Ablation A3: directory replacement policy (skewed PostMark)",
		"policy (0=LRU,1=MQ)", "txns/s | %", "txns/s", "ORDMA rate %")
	files := scale.count(1200)
	txns := scale.count(6000)
	type cell struct{ tps, rate float64 }
	names := []string{"ablationA3/LRU", "ablationA3/MQ"}
	results := RunCells(len(names),
		func(i int) string { return names[i] },
		func(i int) cell {
			var c cell
			c.tps, c.rate = ablationDirPoint(files, txns, i == 1)
			return c
		})
	for i := range results {
		t.Set(float64(i), "txns/s", results[i].tps)
		t.Set(float64(i), "ORDMA rate %", results[i].rate*100)
	}
	return t
}

func ablationDirPoint(files, txns int, mq bool) (tps, ordmaRate float64) {
	ccfg := DefaultClusterConfig()
	ccfg.ServerCacheBlockSize = 4096
	ccfg.ServerCacheBlocks = 8 * files
	cl := NewCluster(ccfg)
	defer cl.Close()
	client := cl.CachedClient(0, core.Config{
		BlockSize:   4096,
		DataBlocks:  files / 10,
		Headers:     files / 2, // directory cannot map the whole set: policy matters
		UseORDMA:    true,
		MQDirectory: mq,
	})
	pmCfg := postmark.DefaultConfig()
	pmCfg.Files = files
	pmCfg.Transactions = txns
	cl.Go("pm", func(p *sim.Proc) {
		b := postmark.NewSkewed(client, cl.Nodes[0].Host, pmCfg, 0.8)
		var st0 core.Stats
		res := postmarkMeasured(p, "dir ablation", b, cl.Shards[0], func() { st0 = client.Stats() })
		st1 := client.Stats()
		tps = res.TxnsPerSec()
		remote := (st1.ORDMAReads - st0.ORDMAReads) + (st1.RPCReads - st0.RPCReads)
		if remote > 0 {
			ordmaRate = float64(st1.ORDMAReads-st0.ORDMAReads) / float64(remote)
		}
	})
	cl.Run()
	return tps, ordmaRate
}

// AblationBatchIO quantifies batch I/O's client per-I/O amortization
// (§2.2): client CPU microseconds per 16 KB read as the batch factor grows.
func AblationBatchIO(scale Scale) *metrics.Table {
	t := metrics.NewTable("Ablation A4: batch I/O client CPU per read",
		"batch size", "us", "client us/read")
	n := scale.count(512)
	batches := []int{1, 4, 16, 64}
	results := RunCells(len(batches),
		func(i int) string { return fmt.Sprintf("ablationA4/batch%d", batches[i]) },
		func(i int) float64 { return ablationBatchPoint(n, batches[i]) })
	for i, batch := range batches {
		t.Set(float64(batch), "client us/read", results[i])
	}
	return t
}

func ablationBatchPoint(n, batch int) float64 {
	cfg := DefaultClusterConfig()
	cfg.ServerCacheBlockSize = 16 * 1024
	cfg.ServerCacheBlocks = 4 * n
	cl := NewCluster(cfg)
	defer cl.Close()
	const block = 16 * 1024
	fileSize := int64(n) * block
	cl.CreateWarmFile("a4", fileSize)
	client := cl.DAFSClient(0, nic.Poll, dafs.Direct)
	node := cl.Nodes[0]
	var usPerRead float64
	cl.Go("bench", func(p *sim.Proc) {
		h, _ := client.Open(p, "a4")
		node.Host.CPU.MarkEpoch()
		reads := 0
		for off := int64(0); off+int64(batch)*block <= fileSize; off += int64(batch) * block {
			offs := make([]int64, batch)
			for i := range offs {
				offs[i] = off + int64(i)*block
			}
			if _, err := client.BatchReadDirect(p, h, offs, block, 1); err != nil {
				panic(fmt.Sprintf("batch ablation: read: %v", err))
			}
			reads += batch
		}
		usPerRead = node.Host.CPU.BusyTime().Micros() / float64(reads)
	})
	cl.Run()
	return usPerRead
}

// AblationWriteRatio sweeps PostMark's read ratio: §4.2.2 lists a small
// read-write ratio among ORDMA's limits, because writes always need
// server-side state updates and go over RPC. ODAFS's advantage should
// shrink as the write fraction grows.
func AblationWriteRatio(scale Scale) *metrics.Table {
	t := metrics.NewTable("Ablation A6: ODAFS advantage vs read ratio (PostMark)",
		"read ratio %", "txns/s", "DAFS", "ODAFS")
	files := scale.count(800)
	txns := scale.count(6000)
	readPcts := []int{100, 90, 70, 50}
	systems := []string{"DAFS", "ODAFS"}
	g := RunGrid(len(readPcts), len(systems),
		func(ri, si int) string {
			return fmt.Sprintf("ablationA6/read%d%%/%s", readPcts[ri], systems[si])
		},
		func(ri, si int) float64 {
			return ablationWriteRatioPoint(files, txns, readPcts[ri], systems[si] == "ODAFS")
		})
	for ri, readPct := range readPcts {
		for si, name := range systems {
			t.Set(float64(readPct), name, g.At(ri, si))
		}
	}
	return t
}

func ablationWriteRatioPoint(files, txns, readPct int, ordma bool) float64 {
	ccfg := DefaultClusterConfig()
	ccfg.ServerCacheBlockSize = 4096
	ccfg.ServerCacheBlocks = 64 * files
	cl := NewCluster(ccfg)
	defer cl.Close()
	client := cl.CachedClient(0, core.Config{
		BlockSize:  4096,
		DataBlocks: files / 4,
		Headers:    8 * files,
		UseORDMA:   ordma,
	})
	pmCfg := postmark.DefaultConfig()
	pmCfg.Files = files
	pmCfg.Transactions = txns
	pmCfg.ReadRatio = float64(readPct) / 100
	var tps float64
	cl.Go("pm", func(p *sim.Proc) {
		b := postmark.New(client, cl.Nodes[0].Host, pmCfg)
		tps = postmarkMeasured(p, "write-ratio ablation", b, cl.Shards[0], func() {}).TxnsPerSec()
	})
	cl.Run()
	return tps
}

// AblationSuccessRate sweeps the server cache hit rate seen by ORDMA
// (§4.2.2 "Low ORDMA success rate"): as more references go stale, ODAFS
// converges toward DAFS because exceptions plus RPC retries (and disk I/O)
// mask ORDMA's benefit.
func AblationSuccessRate(scale Scale) *metrics.Table {
	t := metrics.NewTable("Ablation A5: ODAFS vs server-side reference validity",
		"valid refs %", "MB/s", "ODAFS", "DAFS")
	n := scale.count(2048)
	valids := []float64{1.0, 0.75, 0.5, 0.25}
	systems := []string{"ODAFS", "DAFS"}
	g := RunGrid(len(valids), len(systems),
		func(vi, si int) string {
			return fmt.Sprintf("ablationA5/valid%.0f%%/%s", valids[vi]*100, systems[si])
		},
		func(vi, si int) float64 {
			return ablationSuccessPoint(n, valids[vi], systems[si] == "ODAFS")
		})
	for vi, valid := range valids {
		for si, name := range systems {
			t.Set(valid*100, name, g.At(vi, si))
		}
	}
	return t
}

// ablationSuccessPoint runs one (validity fraction, system) cell.
func ablationSuccessPoint(n int, validFrac float64, ordma bool) float64 {
	cfg := DefaultClusterConfig()
	cfg.ServerCacheBlockSize = 4096
	cfg.ServerCacheBlocks = 4 * n
	cl := NewCluster(cfg)
	defer cl.Close()
	fileSize := int64(n) * 4096
	srv := cl.Shards[0]
	f, err := srv.FS.Create("a5", fileSize)
	if err != nil {
		panic(fmt.Sprintf("a5: create: %v", err))
	}
	srv.Cache.Warm(f)
	client := cl.CachedClient(0, core.Config{
		BlockSize:  4096,
		DataBlocks: 32,
		Headers:    2 * n,
		UseORDMA:   ordma,
	})
	var mbps float64
	cl.Go("bench", func(p *sim.Proc) {
		h, _ := client.Open(p, "a5")
		if err := client.PopulateDirectory(p, h); err != nil {
			panic(fmt.Sprintf("a5: populate directory: %v", err))
		}
		// Invalidate a fraction of the exports server-side.
		srv.Cache.EvictFraction(f, 1-validFrac, sim.NewRand(7))
		srv.NIC.TPT.WarmTLB()
		start := p.Now()
		var bytes int64
		for off := int64(0); off < fileSize; off += 4096 {
			got, err := client.Read(p, h, off, 4096, 1)
			if err != nil {
				panic(fmt.Sprintf("a5: read: %v", err))
			}
			bytes += got
		}
		mbps = float64(bytes) / 1e6 / p.Now().Sub(start).Seconds()
	})
	cl.Run()
	return mbps
}
