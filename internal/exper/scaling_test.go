package exper

import "testing"

// TestScalingODAFSAtLeastDAFS asserts the scale-out headline: ODAFS
// aggregate throughput is at least DAFS's at every client count (it wins
// outright while the server CPU is the bottleneck and ties once both
// saturate the link). A hair of tolerance absorbs float assembly noise;
// the simulation itself is deterministic.
func TestScalingODAFSAtLeastDAFS(t *testing.T) {
	fileSize := Scale(0.08).bytes(8 << 20)
	for _, n := range ScalingClientCounts {
		d := scalingCell("DAFS", n, 1, fileSize, false)
		o := scalingCell("ODAFS", n, 1, fileSize, false)
		if o.AggMBps < d.AggMBps*0.999 {
			t.Errorf("%d clients: ODAFS %.1f MB/s < DAFS %.1f MB/s", n, o.AggMBps, d.AggMBps)
		}
		// ODAFS's defining property: the measured pass is all
		// client-initiated RDMA, so the server CPU stays out of the
		// data path entirely while DAFS keeps burning cycles per block.
		if o.ShardCPUPct[0] >= d.ShardCPUPct[0] {
			t.Errorf("%d clients: ODAFS server CPU %.1f%% not below DAFS %.1f%%",
				n, o.ShardCPUPct[0], d.ShardCPUPct[0])
		}
	}
}

// TestScalingSweepShape runs the full sweep at tiny scale and checks
// every cell of every protocol reports sane, positive measurements.
func TestScalingSweepShape(t *testing.T) {
	rows := Scaling(tiny)
	if want := len(ScalingClientCounts) * len(ScalingSystems); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	i := 0
	for _, n := range ScalingClientCounts {
		for _, sys := range ScalingSystems {
			r := rows[i]
			i++
			if r.System != sys || r.Clients != n || r.Shards != 1 {
				t.Fatalf("row %d = %s/%d, want %s/%d (deterministic ordering broken)",
					i-1, r.System, r.Clients, sys, n)
			}
			if r.AggMBps <= 0 {
				t.Errorf("%s/%d: throughput %.2f, want > 0", sys, n, r.AggMBps)
			}
			if r.RespMicros <= 0 {
				t.Errorf("%s/%d: response time %.2f, want > 0", sys, n, r.RespMicros)
			}
			if len(r.ShardCPUPct) != 1 || len(r.ShardLinkPct) != 1 {
				t.Fatalf("%s/%d: per-shard series lengths %d/%d, want 1",
					sys, n, len(r.ShardCPUPct), len(r.ShardLinkPct))
			}
			if v := r.ShardCPUPct[0]; v < 0 || v > 110 {
				t.Errorf("%s/%d: server CPU %.2f%% out of range", sys, n, v)
			}
			if v := r.ShardLinkPct[0]; v < 0 || v > 110 {
				t.Errorf("%s/%d: server link %.2f%% out of range", sys, n, v)
			}
		}
	}
	// Aggregate throughput must grow from one client to the knee: a
	// single NFS client is client-CPU-bound far below the link, so the
	// workgroup should push the server well past it.
	thr, _, _, _ := ScalingTables(rows)
	one, _ := thr.Get(1, "NFS")
	many, _ := thr.Get(float64(ScalingClientCounts[len(ScalingClientCounts)-1]), "NFS")
	if many <= one {
		t.Errorf("NFS aggregate did not scale: 1 client %.1f MB/s, %d clients %.1f MB/s",
			one, ScalingClientCounts[len(ScalingClientCounts)-1], many)
	}
	// Per-op response time must rise with contention for every system.
	_, resp, _, _ := ScalingTables(rows)
	for _, sys := range ScalingSystems {
		r1, _ := resp.Get(1, sys)
		r32, _ := resp.Get(32, sys)
		if r32 <= r1 {
			t.Errorf("%s: response time did not grow under load (1 client %.0fus, 32 clients %.0fus)",
				sys, r1, r32)
		}
	}
}
