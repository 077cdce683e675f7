package scenario

import (
	"testing"

	"danas/internal/exper"
	"danas/internal/trace"
)

// failureTestShards keeps the failure-experiment tests fast: the full
// 1..8 axis is exercised by danas-bench and the CI smoke job.
var failureTestShards = []int{1, 2}

func TestFailureRowsComplete(t *testing.T) {
	reps := FailureOver(tiny, failureTestShards)
	if want := len(exper.FailureScheds) * len(failureTestShards) * len(exper.ScalingSystems); len(reps) != want {
		t.Fatalf("rows = %d, want %d", len(reps), want)
	}
	ops := int64(len(trace.Generate(exper.TraceGen(tiny))))
	for _, r := range reps {
		m := r.M
		if m.OpsOK+m.OpsFailed != ops {
			t.Errorf("%s: ok+failed = %d, want every replayed op accounted (%d)",
				r.Spec.Name, m.OpsOK+m.OpsFailed, ops)
		}
		if m.Fault.BaseMBps <= 0 {
			t.Errorf("%s: no baseline throughput", r.Spec.Name)
		}
		if failureSched(r.Spec) == "degrade" && m.OpsFailed != 0 {
			t.Errorf("%s: %d ops failed under pure congestion", r.Spec.Name, m.OpsFailed)
		}
	}
}

// TestFailureDeterminism is the determinism regression for the failure
// artifact through the scenario runner: a fixed schedule must render
// byte-identically across reruns and across the experiment worker pool.
func TestFailureDeterminism(t *testing.T) {
	old := exper.Parallelism()
	defer exper.SetParallelism(old)

	render := func() string { return FormatFailure(FailureOver(tiny, failureTestShards)) }
	exper.SetParallelism(1)
	first := render()
	if second := render(); second != first {
		t.Fatal("two serial runs of the failure artifact differ")
	}
	exper.SetParallelism(8)
	if par := render(); par != first {
		t.Fatal("parallel run of the failure artifact differs from serial")
	}
}

// TestWriteMixKnee is the experiment's acceptance shape at test scale:
// against one shard, a pure write stream must complete fewer MB/s than
// the pure read stream (destage-limited, not link-limited), with
// backpressure stall time and destage disk traffic to show for it.
func TestWriteMixKnee(t *testing.T) {
	byFrac := make(map[float64]map[string]exper.Measured)
	for _, r := range WriteMixOver(tiny, []int{1}, []float64{1.0, 0.0}) {
		frac := r.Spec.Workload.ReadFrac
		if byFrac[frac] == nil {
			byFrac[frac] = make(map[string]exper.Measured)
		}
		byFrac[frac][r.Spec.legend()] = r.M
	}
	for _, sys := range exper.ScalingSystems {
		reads, writes := byFrac[1.0][sys], byFrac[0.0][sys]
		if writes.MBps >= reads.MBps {
			t.Errorf("%s: pure writes %.1f MB/s >= pure reads %.1f MB/s — write path never capped",
				sys, writes.MBps, reads.MBps)
		}
		if writes.WB.FlushedMB == 0 {
			t.Errorf("%s: pure write cell destaged nothing", sys)
		}
		if writes.WB.StallMillis == 0 {
			t.Errorf("%s: pure write cell recorded no dirty-high-water stall time", sys)
		}
		if len(writes.ShardDiskPct) != 1 || writes.ShardDiskPct[0] <= reads.ShardDiskPct[0] {
			t.Errorf("%s: destage disk utilization %.1f%% not above read cell's %.1f%%",
				sys, writes.ShardDiskPct[0], reads.ShardDiskPct[0])
		}
		if reads.WB.Commits != 0 {
			t.Errorf("%s: pure read cell executed %d commits", sys, reads.WB.Commits)
		}
		if writes.WB.Commits == 0 {
			t.Errorf("%s: pure write cell executed no commits", sys)
		}
	}
}

// TestWriteMixDeterminism is the determinism regression for the
// write-mix artifact through the scenario runner: the sweep rendered
// twice from scratch must be byte-identical, serially and across a
// worker pool — the contract behind danas-bench -parallel and
// rerun-stable CI output.
func TestWriteMixDeterminism(t *testing.T) {
	old := exper.Parallelism()
	defer exper.SetParallelism(old)
	render := func() string {
		return FormatWriteMix(WriteMixOver(tiny, []int{1, 2}, []float64{1.0, 0.3}))
	}
	exper.SetParallelism(1)
	first := render()
	if second := render(); second != first {
		t.Fatal("two serial write-mix runs differ")
	}
	exper.SetParallelism(8)
	if par := render(); par != first {
		t.Fatal("parallel write-mix run differs from serial")
	}
}
