package exper

import (
	"fmt"

	"danas/internal/bdb"
	"danas/internal/metrics"
	"danas/internal/sim"
)

// Fig5CopyKB is the x-axis: bytes copied from the db cache into the
// application buffer per 60 KB record (the paper varies 1 byte to 60 KB;
// its axis is labelled 0, 8, 16, 32, 64 KB).
var Fig5CopyKB = []int{0, 8, 16, 32, 64}

// Fig5 reproduces Figure 5: an embedded database computes an equality join
// over 60 KB records stored on the NAS server, prefetching record pages
// with application-level read-ahead, while the amount of data copied per
// record into the application buffer scales the client's computational
// load.
//
// Paper shape: with little copying all RDDP systems run near wire speed
// (NFS pre-posting slightly ahead); as copying grows, throughput becomes
// client-CPU-bound and orders inversely to each system's client overhead;
// standard NFS is lowest throughout.
func Fig5(scale Scale) *metrics.Table {
	t := metrics.NewTable("Figure 5: Berkeley DB asynchronous I/O throughput",
		"copy KB/record", "MB/s", Systems...)
	records := scale.count(160)
	g := RunGrid(len(Systems), len(Fig5CopyKB),
		func(si, ki int) string {
			return fmt.Sprintf("fig5/%s/copy%dKB", Systems[si], Fig5CopyKB[ki])
		},
		func(si, ki int) float64 {
			copyBytes := int64(Fig5CopyKB[ki]) * 1024
			if copyBytes == 0 {
				copyBytes = 1 // the paper's "one byte" point
			}
			if copyBytes > 60*1024 {
				copyBytes = 60 * 1024
			}
			return fig5Point(Systems[si], records, copyBytes)
		})
	for si, system := range Systems {
		for ki, kb := range Fig5CopyKB {
			t.Set(float64(kb), system, g.At(si, ki))
		}
	}
	return t
}

// fig5Point builds the database through the given system's client and runs
// the join with the given per-record copy amount.
func fig5Point(system string, records int, copyPerRecord int64) float64 {
	cfg := DefaultClusterConfig()
	cfg.ServerCacheBlockSize = 64 * 1024
	cfg.ServerCacheBlocks = 1 << 16
	cl := NewCluster(cfg)
	defer cl.Close()
	client := cl.clientFor(system, 0)
	node, srv := cl.Nodes[0], cl.Shards[0]

	var mbps float64
	cl.Go("dbapp", func(p *sim.Proc) {
		// Build phase (not measured): outer key table + inner records.
		outer, err := bdb.Create(p, client, srv.FS, node.Host, "outer.db", 1<<20)
		if err != nil {
			panic(fmt.Sprintf("fig5 build outer: %v", err))
		}
		inner, err := bdb.Create(p, client, srv.FS, node.Host, "inner.db", 32<<20)
		if err != nil {
			panic(fmt.Sprintf("fig5 build inner: %v", err))
		}
		rec := make([]byte, 60*1024)
		for k := 0; k < records; k++ {
			if perr := outer.Put(p, uint64(k), []byte{1}); perr != nil {
				panic(fmt.Sprintf("fig5 build: outer put: %v", perr))
			}
			for i := range rec {
				rec[i] = byte(k + i)
			}
			if perr := inner.Put(p, uint64(k), rec); perr != nil {
				panic(fmt.Sprintf("fig5 build: inner put: %v", perr))
			}
		}
		if serr := outer.Sync(p); serr != nil {
			panic(fmt.Sprintf("fig5 build: outer sync: %v", serr))
		}
		if serr := inner.Sync(p); serr != nil {
			panic(fmt.Sprintf("fig5 build: inner sync: %v", serr))
		}
		// Server cache is warm from the writes; re-warm explicitly and
		// open fresh handles with a cold db cache sized well below the
		// record set so records stream from the server.
		f, _ := srv.FS.Lookup("inner.db")
		srv.Cache.Warm(f)
		outer2, err := bdb.Open(p, client, srv.FS, node.Host, "outer.db", 1<<20)
		if err != nil {
			panic(fmt.Sprintf("fig5: open outer: %v", err))
		}
		inner2, err := bdb.Open(p, client, srv.FS, node.Host, "inner.db", 4<<20)
		if err != nil {
			panic(fmt.Sprintf("fig5: open inner: %v", err))
		}
		start := p.Now()
		res, err := bdb.EqualityJoin(p, outer2, inner2, copyPerRecord, 8)
		if err != nil {
			panic(fmt.Sprintf("fig5 join: %v", err))
		}
		elapsed := p.Now().Sub(start)
		mbps = float64(res.Bytes) / 1e6 / elapsed.Seconds()
	})
	cl.Run()
	return mbps
}
