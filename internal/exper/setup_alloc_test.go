package exper

import (
	"fmt"
	"runtime"
	"testing"
)

// raceEnabled is set when the race detector instruments the build; it
// allocates on its own account, so allocation budgets skip under it.
var raceEnabled bool

// TestWarmFileAllocations warms a fixed file set on a two-shard ODAFS
// cluster with CreateWarmFile, as every replay cell's set-up does, and
// pins the allocations per warmed block per shard: the cache block and
// its export's segment, with the page table, TLB list, segment table
// and cache index grown in chunks or amortized doublings. A regression
// in the warm path (a per-block list element, a per-page map entry)
// shows here.
func TestWarmFileAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations vary")
	}
	const shards, files, fileBlocks = 2, 8, 256
	cfg := DefaultClusterConfig()
	cfg.Shards = shards
	cfg.StripeUnit = scalingBlock
	cfg.ServerCacheBlocks = files*fileBlocks + 64
	cfg.Params.NICTLBSize = files*fileBlocks*int(scalingBlock/4096) + 1024
	cl := NewCluster(cfg)
	defer cl.Close()
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range names {
		cl.CreateWarmFile(name, fileBlocks*scalingBlock)
	}
	runtime.ReadMemStats(&after)
	perBlock := float64(after.Mallocs-before.Mallocs) / (files * fileBlocks * shards)
	t.Logf("%.3f allocations per warmed block per shard, %.0f bytes", perBlock,
		float64(after.TotalAlloc-before.TotalAlloc)/(files*fileBlocks*shards))
	if perBlock > 2.1 {
		t.Errorf("warming allocates %.3f times per block per shard, want at most 2.1", perBlock)
	}
}
