package exper

import (
	"fmt"

	"danas/internal/cache"
	"danas/internal/core"
	"danas/internal/dafs"
	"danas/internal/metrics"
	"danas/internal/nas"
	"danas/internal/nic"
	"danas/internal/sim"
)

// Table3Row is one response-time measurement.
type Table3Row struct {
	Mechanism     string
	InMemMicros   float64 // raw read into an application buffer
	InCacheMicros float64 // read through the client file cache
}

// Table3 reproduces the paper's Table 3: mean response time of 4 KB reads
// from server memory during the second pass over a file, for the three
// network I/O mechanisms — in-line RPC read, direct (server-RDMA) RPC
// read, and client-initiated ORDMA read — both into a bare application
// buffer ("in mem.") and through the client file cache ("in cache").
//
// Paper values: inline 128/153 us, direct 144/144 us, ORDMA 92/92 us; the
// claim is ORDMA ~36% below direct RPC.
func Table3(scale Scale) []Table3Row {
	n := scale.count(512) // 4KB reads measured per cell
	rows := []Table3Row{
		{Mechanism: "RPC in-line read"},
		{Mechanism: "RPC direct read"},
		{Mechanism: "ORDMA read"},
	}
	mechanisms := []string{"inline", "direct", "ordma"}
	g := RunGrid(len(mechanisms), 2,
		func(mi, ci int) string {
			kind := "inmem"
			if ci == 1 {
				kind = "incache"
			}
			return "table3/" + mechanisms[mi] + "/" + kind
		},
		func(mi, ci int) float64 {
			if ci == 0 {
				return rawLatency(n, mechanisms[mi])
			}
			return cachedLatency(n, mechanisms[mi])
		})
	for i := range rows {
		rows[i].InMemMicros = g.At(i, 0)
		rows[i].InCacheMicros = g.At(i, 1)
	}
	return rows
}

// rawLatency measures synchronous 4 KB reads into an application buffer
// using a bare DAFS client (no file cache interposed).
func rawLatency(n int, mechanism string) float64 {
	cfg := DefaultClusterConfig()
	cfg.ServerCacheBlockSize = 4096
	cfg.ServerCacheBlocks = 4 * n
	cl := NewCluster(cfg)
	defer cl.Close()
	fileSize := int64(n) * 4096
	cl.CreateWarmFile("t3", fileSize)

	tm := dafs.Direct
	if mechanism == "inline" {
		tm = dafs.Inline
	}
	client := cl.DAFSClient(0, nic.Poll, tm)

	var hist metrics.Hist
	cl.Go("bench", func(p *sim.Proc) {
		h, err := client.Open(p, "t3")
		if err != nil {
			panic(fmt.Sprintf("table3: open: %v", err))
		}
		if mechanism == "ordma" {
			// First pass over RPC collects the remote memory references;
			// the measured pass issues client-initiated gets only.
			refs := collectRefs(p, client, h, n)
			cl.Shards[0].NIC.TPT.WarmTLB()
			ordmaGets(p, client, refs, &hist)
			return
		}
		// First pass warms protocol state; second pass is measured.
		for pass := 0; pass < 2; pass++ {
			for off := int64(0); off < fileSize; off += 4096 {
				start := p.Now()
				if _, err := client.Read(p, h, off, 4096, 1); err != nil {
					panic(fmt.Sprintf("table3: read: %v", err))
				}
				if pass == 1 {
					hist.Observe(p.Now().Sub(start))
				}
			}
		}
	})
	cl.Run()
	return hist.Mean().Micros()
}

// cachedLatency measures the same mechanisms through the client file
// cache: the cache is configured with few data blocks and many headers
// (§5.2 microbenchmark setup), so second-pass reads still miss locally but
// — for ORDMA — hit the reference directory.
func cachedLatency(n int, mechanism string) float64 {
	cfg := DefaultClusterConfig()
	cfg.ServerCacheBlockSize = 4096
	cfg.ServerCacheBlocks = 4 * n
	cl := NewCluster(cfg)
	defer cl.Close()
	fileSize := int64(n) * 4096
	cl.CreateWarmFile("t3", fileSize)

	ccfg := core.Config{
		BlockSize:  4096,
		DataBlocks: 16, // far smaller than the file: pass 2 misses locally
		Headers:    4 * n,
		UseORDMA:   mechanism == "ordma",
		InlineRPC:  mechanism == "inline",
	}
	client := cl.CachedClient(0, ccfg)

	var hist metrics.Hist
	cl.Go("bench", func(p *sim.Proc) {
		h, err := client.Open(p, "t3")
		if err != nil {
			panic(fmt.Sprintf("table3: open: %v", err))
		}
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				cl.Shards[0].NIC.TPT.WarmTLB()
			}
			for off := int64(0); off < fileSize; off += 4096 {
				start := p.Now()
				if _, err := client.Read(p, h, off, 4096, 1); err != nil {
					panic(fmt.Sprintf("table3: read: %v", err))
				}
				if pass == 1 {
					hist.Observe(p.Now().Sub(start))
				}
			}
		}
	})
	cl.Run()
	return hist.Mean().Micros()
}

// collectRefs reads the file's first n 4 KB blocks in-line over RPC and
// returns the server memory reference piggybacked on each reply.
func collectRefs(p *sim.Proc, client *dafs.Client, h *nas.Handle, n int) []cache.RemoteRef {
	refs := make([]cache.RemoteRef, 0, n)
	for off := int64(0); off < int64(n)*4096; off += 4096 {
		_, ref, err := client.ReadInline(p, h, off, 4096)
		if err != nil || ref.VA == 0 {
			panic("exper: ORDMA reference collection failed")
		}
		refs = append(refs, ref)
	}
	return refs
}

// ordmaGets issues one client-initiated 4 KB get per reference, observing
// each get's latency into hist.
func ordmaGets(p *sim.Proc, client *dafs.Client, refs []cache.RemoteRef, hist *metrics.Hist) {
	for _, ref := range refs {
		start := p.Now()
		if res := client.QP().RDMA(p, nic.Get, ref.VA, 4096, ref.Cap); !res.OK() {
			panic("exper: unexpected ORDMA fault")
		}
		hist.Observe(p.Now().Sub(start))
	}
}
