package main

import (
	"testing"
	"time"

	"danas/internal/obs"
	"danas/internal/sim"
)

const (
	lower  = "lower"
	higher = "higher"
)

// metric is one reported number: its name and unit, which direction is
// better, and (end-to-end metrics only) the share of the baseline by
// which it may worsen before a change counts as a regression.
//
// Units: host time is in s or ns; simulated time carries a _sim suffix
// (ms_sim, us_sim), because it repeats exactly for a seed.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	value  func(d *runData) float64
}

// runData is everything one run measured.
type runData struct {
	// passes are the untraced passes (in a traced run, the one
	// reference pass), and cells the first pass's simulated results,
	// which every pass repeats.
	passes []passResult
	cells  []cellResult
	rssMB  float64

	// Traced runs only: a pass with spans armed and what arming them
	// cost, the CPU profile of the profiled passes, and the
	// microbenchmark results by name.
	observed    passResult
	overheadPct float64
	profile     *layerProfile
	micro       map[string]testing.BenchmarkResult
}

// timed are the passes host time is read from: every untraced pass but
// the first, which warms the process up and measures the slices (see
// slicer), or the first when it is the only one.
func (d *runData) timed() []passResult {
	if len(d.passes) > 1 {
		return d.passes[1:]
	}
	return d.passes
}

// passSeconds reads one host duration of every pass, in seconds.
func passSeconds(ps []passResult, f func(passResult) time.Duration) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p).Seconds()
	}
	return xs
}

// meanRef is the mean CPU time of a pass's reference chunks: the
// machine's speed over that pass.
func meanRef(p passResult) time.Duration {
	if len(p.Refs) == 0 {
		return refNominal
	}
	var sum time.Duration
	for _, r := range p.Refs {
		sum += r
	}
	return sum / time.Duration(len(p.Refs))
}

// calibrated scales a host duration measured while reference chunks
// took ref each to seconds of a machine that takes refNominal.
func calibrated(t, ref time.Duration) float64 {
	return t.Seconds() * ratio(float64(refNominal), float64(ref))
}

// setupSeconds is set-up's calibrated CPU time: the median over the
// timed passes of each pass's set-up, calibrated by that pass's
// reference chunks.
func (d *runData) setupSeconds() float64 {
	ps := d.timed()
	xs := passSeconds(ps, func(p passResult) time.Duration { return p.Setup })
	for i, p := range ps {
		xs[i] *= ratio(float64(refNominal), float64(meanRef(p)))
	}
	return median(xs)
}

// cpuSeconds is the calibrated CPU time of one pass's measured phases:
// the sum over every cell's slices of the slice's least CPU time over
// the timed passes, calibrated by the mean over the reference chunks of
// each chunk's least time over the same passes. Other work on the
// machine only ever adds time to a slice or a chunk, so its fastest run
// is the closest to its own cost (Chen and Revels, "Robust benchmarking
// in noisy environments", 2016, make the same case for whole
// benchmarks); what the minimum cannot remove, a slowdown that lasts
// the whole run, the calibration does.
func (d *runData) cpuSeconds() float64 {
	ps := d.timed()
	var work, ref time.Duration
	for c, cut := range ps[0].Slices {
		for k := range cut {
			least := cut[k]
			for _, p := range ps[1:] {
				least = min(least, p.Slices[c][k])
			}
			work += least
		}
	}
	if n := len(ps[0].Refs); n > 0 {
		for k, least := range ps[0].Refs {
			for _, p := range ps[1:] {
				least = min(least, p.Refs[k])
			}
			ref += least
		}
		ref /= time.Duration(n)
	} else {
		ref = refNominal
	}
	return calibrated(work, ref)
}

func (d *runData) sim() simTotals { return totals(d.cells) }

// latMillis is the q-quantile of the pooled simulated latencies, in ms.
func (d *runData) latMillis(q float64) float64 {
	return float64(quantile(sortedLats(d.cells), q)) / float64(sim.Millisecond)
}

// perEvent divides a measured-phase total of the reference pass by its
// event count.
func (d *runData) perEvent(n float64) float64 {
	if ev := d.passes[0].Events; ev > 0 {
		return n / float64(ev)
	}
	return 0
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd are the metrics a user of the simulator sees, printed by
// untraced runs: host cost, then the simulated system's performance.
var endToEnd = []metric{
	{"cpu_s", "s", lower, 0.25, func(d *runData) float64 { return d.cpuSeconds() }},
	{"setup_s", "s", lower, 0.25, func(d *runData) float64 { return d.setupSeconds() }},
	{"peak_rss_mb", "MB", lower, 0.2, func(d *runData) float64 { return d.rssMB }},
	{"sim_mbps", "MB/s", higher, 0.2, func(d *runData) float64 {
		t := d.sim()
		return ratio(float64(t.Bytes)/1e6, t.Seconds)
	}},
	{"sim_ops_per_s", "1/s", higher, 0.2, func(d *runData) float64 {
		t := d.sim()
		return ratio(float64(t.Ops), t.Seconds)
	}},
	{"sim_p50_ms", "ms_sim", lower, 0.2, func(d *runData) float64 { return d.latMillis(0.50) }},
	{"sim_p99_ms", "ms_sim", lower, 0.2, func(d *runData) float64 { return d.latMillis(0.99) }},
}

// microNs, microAllocs and microEvents read a microbenchmark's host
// nanoseconds, allocations and simulation events per operation.
func microNs(name string) func(*runData) float64 {
	return func(d *runData) float64 {
		r := d.micro[name]
		return ratio(float64(r.T.Nanoseconds()), float64(r.N))
	}
}

func microAllocs(name string) func(*runData) float64 {
	return func(d *runData) float64 {
		r := d.micro[name]
		return ratio(float64(r.MemAllocs), float64(r.N))
	}
}

func microEvents(name string) func(*runData) float64 {
	return func(d *runData) float64 { return d.micro[name].Extra[eventsPerOp] }
}

// layer reads one of the reference pass's simulated layer counters.
func layer(f func(l layerCounts) float64) func(*runData) float64 {
	return func(d *runData) float64 { return f(d.sim().Layers) }
}

// perLayer are the traced run's metrics, grouped by the layer they
// measure. README.md maps each group to the end-to-end metric it
// should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	ms := []metric{
		// sim: the kernel's share of the workload, and its primitives.
		{"sim.events", "count", lower, 0, func(d *runData) float64 { return float64(d.passes[0].Events) }},
		{"sim.events_per_op", "count", lower, 0, func(d *runData) float64 {
			return ratio(float64(d.passes[0].Events), float64(d.sim().Ops))
		}},
		{"sim.ns_per_event", "ns", lower, 0, func(d *runData) float64 { return d.perEvent(float64(d.passes[0].Run)) }},
		{"sim.allocs_per_event", "count", lower, 0, func(d *runData) float64 { return d.perEvent(float64(d.passes[0].Mallocs)) }},
		{"sim.bytes_per_event", "B", lower, 0, func(d *runData) float64 { return d.perEvent(float64(d.passes[0].AllocBytes)) }},
		{"sim.post_fire_ns", "ns", lower, 0, microNs("sim.post_fire")},
		{"sim.post_fire_allocs", "count", lower, 0, microAllocs("sim.post_fire")},
		{"sim.deep_queue_post_fire_ns", "ns", lower, 0, microNs("sim.deep_queue_post_fire")},
		{"sim.block_wake_ns", "ns", lower, 0, microNs("sim.block_wake")},
		{"sim.block_wake_allocs", "count", lower, 0, microAllocs("sim.block_wake")},
		{"sim.station_wait_ns", "ns", lower, 0, microNs("sim.station_wait")},
		{"sim.signal_wait_ns", "ns", lower, 0, microNs("sim.signal_wait")},
		{"sim.signal_wait_allocs", "count", lower, 0, microAllocs("sim.signal_wait")},
		// netsim: switch hops, and the storage leaf's trunks.
		{"netsim.star_hop_ns", "ns", lower, 0, microNs("netsim.star_hop")},
		{"netsim.crossleaf_hop_ns", "ns", lower, 0, microNs("netsim.crossleaf_hop")},
		{"netsim.crossleaf_hop_allocs", "count", lower, 0, microAllocs("netsim.crossleaf_hop")},
		{"netsim.trunk_up_pct", "%", lower, 0, layer(func(l layerCounts) float64 { return l.TrunkUpPct })},
		{"netsim.trunk_down_pct", "%", lower, 0, layer(func(l layerCounts) float64 { return l.TrunkDownPct })},
		{"netsim.trunk_max_backlog_us", "us_sim", lower, 0, layer(func(l layerCounts) float64 { return l.TrunkBacklog.Micros() })},
		// rpc/udpip and dafs/vi/nic: the two transports.
		{"rpc.udp_rtt_ns", "ns", lower, 0, microNs("rpc.udp_rtt")},
		{"rpc.udp_rtt_events", "count", lower, 0, microEvents("rpc.udp_rtt")},
		{"rpc.retransmits", "count", lower, 0, layer(func(l layerCounts) float64 { return float64(l.Retransmits) })},
		{"dafs.vi_rtt_ns", "ns", lower, 0, microNs("dafs.vi_rtt")},
		{"dafs.vi_rtt_events", "count", lower, 0, microEvents("dafs.vi_rtt")},
		{"vi.rdma_get_ns", "ns", lower, 0, microNs("vi.rdma_get")},
		{"vi.rdma_get_events", "count", lower, 0, microEvents("vi.rdma_get")},
		// core/cache: the client cache and ORDMA.
		{"core.cache_hit_ns", "ns", lower, 0, microNs("core.cache_hit")},
		{"core.hit_ratio", "ratio", higher, 0, layer(func(l layerCounts) float64 {
			return ratio(float64(l.CacheHits), float64(l.CacheHits+l.CacheMisses))
		})},
		{"core.ordma_reads", "count", higher, 0, layer(func(l layerCounts) float64 { return float64(l.ORDMAReads) })},
		{"core.ordma_faults", "count", lower, 0, layer(func(l layerCounts) float64 { return float64(l.ORDMAFaults) })},
		{"core.rpc_reads", "count", lower, 0, layer(func(l layerCounts) float64 { return float64(l.RPCReads) })},
		// wb/fsim/host: write-behind, disks and server CPUs.
		{"wb.flushes", "count", lower, 0, layer(func(l layerCounts) float64 { return float64(l.Flushes) })},
		{"wb.blocks_per_flush", "count", higher, 0, layer(func(l layerCounts) float64 {
			return ratio(float64(l.BlocksFlushed), float64(l.Flushes))
		})},
		{"wb.stall_ms", "ms_sim", lower, 0, layer(func(l layerCounts) float64 { return float64(l.StallTime) / float64(sim.Millisecond) })},
		{"wb.throttled", "count", lower, 0, layer(func(l layerCounts) float64 { return float64(l.Throttled) })},
		{"wb.commits", "count", lower, 0, layer(func(l layerCounts) float64 { return float64(l.Commits) })},
		{"fsim.max_disk_pct", "%", lower, 0, layer(func(l layerCounts) float64 { return l.MaxDiskPct })},
		{"host.max_server_cpu_pct", "%", lower, 0, layer(func(l layerCounts) float64 { return l.MaxServerCPUPct })},
		// workload: the generator.
		{"workload.ops", "count", higher, 0, func(d *runData) float64 { return float64(d.sim().Ops) }},
		{"workload.stalls", "count", lower, 0, func(d *runData) float64 { return float64(d.sim().Stalls) }},
		{"workload.max_outstanding", "count", lower, 0, func(d *runData) float64 { return float64(d.sim().MaxOut) }},
		// obs: what arming spans costs the host.
		{"obs.trace_overhead_pct", "%", lower, 0, func(d *runData) float64 { return d.overheadPct }},
	}
	// phase: where simulated time goes per op, mean and p99 tail.
	for i := 0; i <= int(obs.NumPhases); i++ {
		name := "other"
		if i < int(obs.NumPhases) {
			name = obs.Phase(i).String()
		}
		ms = append(ms,
			metric{"phase." + name + ".mean_us", "us_sim", lower, 0, func(d *runData) float64 {
				return obs.Summarize(totals(d.observed.Cells).Spans).MeanMicros[i]
			}},
			metric{"phase." + name + ".tail_us", "us_sim", lower, 0, func(d *runData) float64 {
				return obs.Summarize(totals(d.observed.Cells).Spans).TailMicros[i]
			}})
	}
	// host_share: where the host CPU goes while the cells run.
	for _, l := range shareLayers {
		ms = append(ms, metric{"host_share." + l, "%", lower, 0, func(d *runData) float64 { return d.profile.share(l) }})
	}
	return ms
}

// value is one measured metric, as reported.
type value struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// measure reads every metric of ms from d.
func measure(ms []metric, d *runData) []value {
	vs := make([]value, len(ms))
	for i, m := range ms {
		vs[i] = value{m.Name, m.Unit, m.value(d)}
	}
	return vs
}

// lookupMetric finds an end-to-end or per-layer metric by name.
func lookupMetric(name string) (metric, bool) {
	for _, ms := range [][]metric{endToEnd, perLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}
