package danas

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus the ablations. Each iteration regenerates the full artifact through
// the same harness cmd/danas-bench uses; reported metrics are simulated
// quantities (MB/s, µs, txns/s) exposed via b.ReportMetric so `go test
// -bench` output reads like the paper's tables.
//
// Benchmarks run at a reduced scale (identical steady states, smaller
// files) so the full suite completes in minutes; run cmd/danas-bench
// -scale 1 for the full-size artifacts.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"danas/internal/exper"
)

const benchScale = exper.Scale(0.15)

// unit builds a ReportMetric unit string: no whitespace allowed.
func unit(parts ...string) string {
	s := strings.Join(parts, "_")
	s = strings.ReplaceAll(s, " ", "-")
	return strings.ReplaceAll(s, "/", "-")
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exper.Table2(benchScale)
		for _, r := range rows {
			b.ReportMetric(r.RTTMicros, unit(r.Protocol, "rtt_us"))
			b.ReportMetric(r.MBps, unit(r.Protocol, "MBps"))
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exper.Table3(benchScale)
		for _, r := range rows {
			b.ReportMetric(r.InMemMicros, unit(r.Mechanism, "inmem_us"))
			b.ReportMetric(r.InCacheMicros, unit(r.Mechanism, "incache_us"))
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		thr, _ := exper.Fig34(benchScale)
		for _, kb := range []int{4, 64, 512} {
			for _, system := range exper.Systems {
				if v, ok := thr.Get(float64(kb), system); ok {
					b.ReportMetric(v, unit(system, fmt.Sprintf("%dKB_MBps", kb)))
				}
			}
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, cpu := exper.Fig34(benchScale)
		for _, system := range []string{"NFS pre-posting", "NFS hybrid", "DAFS"} {
			if v, ok := cpu.Get(64, system); ok {
				b.ReportMetric(v, unit(system, "64KB_cpu_pct"))
			}
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := exper.Fig5(benchScale)
		for _, kb := range []int{0, 64} {
			for _, system := range exper.Systems {
				if v, ok := tbl.Get(float64(kb), system); ok {
					b.ReportMetric(v, unit(system, fmt.Sprintf("copy%dKB_MBps", kb)))
				}
			}
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := exper.Fig6(benchScale)
		for _, ratio := range exper.Fig6HitRatios {
			for _, system := range []string{"DAFS", "ODAFS"} {
				if v, ok := tbl.Get(float64(ratio), system); ok {
					b.ReportMetric(v, unit(system, fmt.Sprintf("%dpct_txns", ratio)))
				}
			}
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := exper.Fig7(benchScale)
		for _, kb := range exper.Fig7BlockSizesKB {
			for _, system := range []string{"DAFS", "ODAFS"} {
				if v, ok := tbl.Get(float64(kb), system); ok {
					b.ReportMetric(v, unit(system, fmt.Sprintf("%dKB_MBps", kb)))
				}
			}
		}
		if v, ok := tbl.Get(4, "DAFS (polling)"); ok {
			b.ReportMetric(v, "DAFSpoll_4KB_MBps")
		}
	}
}

func BenchmarkScaling(b *testing.B) {
	// The sweep's 30 cells are independent simulations; run them through
	// the worker-pool runner at full width. Results are byte-identical
	// to a serial run (see exper.RunJobs), so the reported metrics are
	// stable across widths.
	old := exper.Parallelism()
	exper.SetParallelism(runtime.GOMAXPROCS(0))
	defer exper.SetParallelism(old)
	for i := 0; i < b.N; i++ {
		rows := exper.Scaling(benchScale)
		for _, r := range rows {
			if r.Clients == 1 || r.Clients == 32 {
				b.ReportMetric(r.AggMBps, unit(r.System, fmt.Sprintf("%dcli_MBps", r.Clients)))
			}
			if r.Clients == 32 {
				b.ReportMetric(r.RespMicros, unit(r.System, "32cli_resp_us"))
			}
		}
	}
}

func BenchmarkScalingGrid(b *testing.B) {
	// The clients×shards grid at a reduced scale: its 120 cells are
	// independent simulations run through the worker-pool runner at full
	// width, byte-identical to serial. Reported: the saturated corner
	// (32 clients) per shard count, showing aggregate fleet throughput
	// scaling with servers.
	old := exper.Parallelism()
	exper.SetParallelism(runtime.GOMAXPROCS(0))
	defer exper.SetParallelism(old)
	for i := 0; i < b.N; i++ {
		rows := exper.ScalingGrid(exper.Scale(0.05))
		for _, r := range rows {
			if r.Clients != 32 {
				continue
			}
			b.ReportMetric(r.AggMBps, unit(r.System, fmt.Sprintf("%dshard_MBps", r.Shards)))
			if r.Shards == 8 {
				b.ReportMetric(r.MaxShardCPUPct(), unit(r.System, "8shard_maxcpu_pct"))
			}
		}
	}
}

func BenchmarkAblationTLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := exper.AblationTLB(exper.Scale(0.05))
		for _, us := range []float64{9, 9000} {
			if v, ok := tbl.Get(us, "mean latency (us)"); ok {
				b.ReportMetric(v, fmt.Sprintf("miss%.0fus_lat_us", us))
			}
		}
	}
}

func BenchmarkAblationCapability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := exper.AblationCapability(benchScale)
		off, _ := tbl.Get(0, "mean latency (us)")
		on, _ := tbl.Get(1, "mean latency (us)")
		b.ReportMetric(off, "caps_off_us")
		b.ReportMetric(on, "caps_on_us")
	}
}

func BenchmarkAblationDirectory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := exper.AblationDirectory(exper.Scale(0.08))
		lru, _ := tbl.Get(0, "txns/s")
		mq, _ := tbl.Get(1, "txns/s")
		b.ReportMetric(lru, "LRU_txns")
		b.ReportMetric(mq, "MQ_txns")
	}
}

func BenchmarkAblationBatchIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := exper.AblationBatchIO(benchScale)
		for _, n := range []int{1, 64} {
			if v, ok := tbl.Get(float64(n), "client us/read"); ok {
				b.ReportMetric(v, fmt.Sprintf("batch%d_us_per_read", n))
			}
		}
	}
}

func BenchmarkAblationWriteRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := exper.AblationWriteRatio(exper.Scale(0.08))
		for _, pct := range []float64{100, 50} {
			o, _ := tbl.Get(pct, "ODAFS")
			d, _ := tbl.Get(pct, "DAFS")
			if d > 0 {
				b.ReportMetric(o/d, fmt.Sprintf("advantage_%.0fpct_reads", pct))
			}
		}
	}
}

func BenchmarkAblationSuccessRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := exper.AblationSuccessRate(exper.Scale(0.05))
		for _, pct := range []float64{100, 25} {
			if v, ok := tbl.Get(pct, "ODAFS"); ok {
				b.ReportMetric(v, fmt.Sprintf("ODAFS_%.0fpct_MBps", pct))
			}
		}
	}
}
