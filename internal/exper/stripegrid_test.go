package exper

import (
	"strings"
	"sync"
	"testing"
)

// tinyGrid is ScalingGrid(tiny), run once and shared by the tests that
// read the full grid; none of them modifies the rows.
var tinyGrid = sync.OnceValue(func() []GridRow { return ScalingGrid(tiny) })

// TestScalingGridODAFSAtLeastDAFS is the acceptance headline of the
// sharded grid: at every (clients, shards) cell ODAFS aggregate
// throughput is at least DAFS's (winning outright while any shard CPU is
// the bottleneck, tying once both are link-bound), and ODAFS keeps every
// shard's CPU out of the data path.
func TestScalingGridODAFSAtLeastDAFS(t *testing.T) {
	rows := tinyGrid()
	cell := map[[2]int]map[string]GridRow{}
	for _, r := range rows {
		k := [2]int{r.Clients, r.Shards}
		if cell[k] == nil {
			cell[k] = map[string]GridRow{}
		}
		cell[k][r.System] = r
	}
	for _, n := range GridClientCounts {
		for _, s := range GridShardCounts {
			d, o := cell[[2]int{n, s}]["DAFS"], cell[[2]int{n, s}]["ODAFS"]
			if o.AggMBps < d.AggMBps*0.999 {
				t.Errorf("%dc/%ds: ODAFS %.1f MB/s < DAFS %.1f MB/s", n, s, o.AggMBps, d.AggMBps)
			}
			// The measured pass is all client-initiated RDMA: every shard's
			// CPU stays below DAFS's hottest shard.
			if o.MaxShardCPUPct() >= d.MaxShardCPUPct() {
				t.Errorf("%dc/%ds: ODAFS max shard CPU %.1f%% not below DAFS %.1f%%",
					n, s, o.MaxShardCPUPct(), d.MaxShardCPUPct())
			}
		}
	}
}

// TestScalingGridShape runs the full grid at tiny scale and checks the
// deterministic row order, sane measurements, and that every cell
// reports per-shard utilization for exactly its shard count.
func TestScalingGridShape(t *testing.T) {
	rows := tinyGrid()
	want := len(GridClientCounts) * len(GridShardCounts) * len(ScalingSystems)
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	i := 0
	for _, n := range GridClientCounts {
		for _, s := range GridShardCounts {
			for _, sys := range ScalingSystems {
				r := rows[i]
				i++
				if r.System != sys || r.Clients != n || r.Shards != s {
					t.Fatalf("row %d = %s/%dc/%ds, want %s/%dc/%ds (deterministic ordering broken)",
						i-1, r.System, r.Clients, r.Shards, sys, n, s)
				}
				if r.AggMBps <= 0 {
					t.Errorf("%s/%dc/%ds: throughput %.2f, want > 0", sys, n, s, r.AggMBps)
				}
				if r.RespMicros <= 0 {
					t.Errorf("%s/%dc/%ds: response time %.2f, want > 0", sys, n, s, r.RespMicros)
				}
				if len(r.ShardCPUPct) != s || len(r.ShardLinkPct) != s {
					t.Fatalf("%s/%dc/%ds: per-shard series lengths %d/%d, want %d",
						sys, n, s, len(r.ShardCPUPct), len(r.ShardLinkPct), s)
				}
				for si := 0; si < s; si++ {
					if v := r.ShardCPUPct[si]; v < 0 || v > 110 {
						t.Errorf("%s/%dc/%ds: shard %d CPU %.2f%% out of range", sys, n, s, si, v)
					}
					if v := r.ShardLinkPct[si]; v < 0 || v > 110 {
						t.Errorf("%s/%dc/%ds: shard %d link %.2f%% out of range", sys, n, s, si, v)
					}
				}
			}
		}
	}
}

// TestScalingGridShardsScaleThroughput checks the point of the exercise:
// once the workgroup saturates one server, adding shards multiplies the
// fleet's aggregate throughput for the direct-access protocols, because
// each shard contributes its own link and (for DAFS) its own CPU.
func TestScalingGridShardsScaleThroughput(t *testing.T) {
	rows := ScalingGridOver(Scale(0.08), []int{16}, []int{1, 4})
	agg := map[string]map[int]float64{}
	for _, r := range rows {
		if agg[r.System] == nil {
			agg[r.System] = map[int]float64{}
		}
		agg[r.System][r.Shards] = r.AggMBps
	}
	for _, sys := range []string{"DAFS", "ODAFS", "NFS hybrid"} {
		one, four := agg[sys][1], agg[sys][4]
		if four < 2*one {
			t.Errorf("%s: 4 shards %.1f MB/s < 2x 1 shard %.1f MB/s — striping did not scale", sys, four, one)
		}
	}
}

// TestScalingGridLoadBalance checks block-range striping plus staggered
// client starts spread the measured load roughly evenly across shards.
func TestScalingGridLoadBalance(t *testing.T) {
	rows := ScalingGridOver(Scale(0.08), []int{8}, []int{4})
	for _, r := range rows {
		min, max := r.ShardLinkPct[0], r.ShardLinkPct[0]
		for _, v := range r.ShardLinkPct[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if max <= 0 {
			t.Errorf("%s: no shard link traffic", r.System)
			continue
		}
		if min < max/2 {
			t.Errorf("%s: shard link utilization imbalanced: min %.1f%% max %.1f%%", r.System, min, max)
		}
	}
}

// TestFormatScalingGridReportsEveryCell checks the danas-bench rendering
// carries one detail line per cell with per-shard utilization.
func TestFormatScalingGridReportsEveryCell(t *testing.T) {
	rows := ScalingGridOver(tiny, []int{1, 2}, []int{1, 2})
	out := FormatScalingGrid(rows)
	for _, wantLine := range []string{"S=1 C=1  ODAFS", "S=2 C=2  NFS hybrid", "cpu%=[", "link%=["} {
		if !strings.Contains(out, wantLine) {
			t.Errorf("rendered grid missing %q:\n%s", wantLine, out)
		}
	}
	// A 2-shard cell must list exactly two per-shard values.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "S=2") {
			continue
		}
		open := strings.Index(line, "cpu%=[")
		close := strings.Index(line[open:], "]")
		if open < 0 || close < 0 {
			t.Fatalf("malformed detail line %q", line)
		}
		if vals := strings.Fields(line[open+len("cpu%=[") : open+close]); len(vals) != 2 {
			t.Errorf("2-shard cell lists %d cpu values: %q", len(vals), line)
		}
	}
}
