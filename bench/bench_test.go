package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"danas/internal/exper"
	"danas/internal/sim"
	"danas/internal/trace"
)

// TestFabricCellMatchesSweep pins the fleet-fabric cells to the
// shipping fabric sweep: at the same scale and client count, each cell
// reproduces the sweep's 4:1 row exactly.
func TestFabricCellMatchesSweep(t *testing.T) {
	const clients = 8
	scale := exper.Scale(0.02)
	rows := exper.FabricSweepOver(scale, []int{clients})
	checked := 0
	for _, row := range rows {
		if row.Oversub != fabricOversub {
			continue
		}
		c := buildFleet(fleetSpec{
			System:  row.System,
			Clients: clients,
			Depth:   fabricDepth,
			Fabric:  exper.FabricConfig{Leaves: fabricLeaves, Spines: fabricSpines, Oversub: fabricOversub},
		}, []trace.GenConfig{exper.FabricGen(scale)})
		r := c.run()
		c.close()
		got := exper.FabricRow{
			System:           r.System,
			Oversub:          fabricOversub,
			Clients:          clients,
			MBps:             float64(r.Bytes) / 1e6 / r.Elapsed.Seconds(),
			P50Micros:        r.Lat.Quantile(0.50).Micros(),
			P95Micros:        r.Lat.Quantile(0.95).Micros(),
			P99Micros:        r.Lat.Quantile(0.99).Micros(),
			Stalls:           r.Stalls,
			MaxShardCPUPct:   r.Layers.MaxServerCPUPct,
			TrunkUpPct:       r.Layers.TrunkUpPct,
			TrunkDownPct:     r.Layers.TrunkDownPct,
			TrunkQueueMicros: r.Layers.TrunkBacklog.Micros(),
		}
		if got != row {
			t.Errorf("%s: benchmark cell\n %+v\nsweep row\n %+v", row.System, got, row)
		}
		checked++
	}
	if checked != len(workloads[0].Cells) {
		t.Fatalf("checked %d cells, want %d", checked, len(workloads[0].Cells))
	}
}

// TestReplayCellMatchesTraceReplay pins the replay cells to the trace
// experiment: on its generator, each benchmark cell reproduces the
// experiment's 8-shard cell exactly.
func TestReplayCellMatchesTraceReplay(t *testing.T) {
	scale := exper.Scale(0.05)
	rows := exper.TraceReplayOver(scale, []int{shards})
	for _, system := range workloads[1].Cells {
		var want *exper.TraceRow
		for i := range rows {
			if rows[i].System == system {
				want = &rows[i]
			}
		}
		if want == nil {
			t.Fatalf("%s: no trace experiment cell", system)
		}
		c := buildFleet(fleetSpec{System: system, Clients: 1, Depth: replayDepth}, []trace.GenConfig{exper.TraceGen(scale)})
		r := c.run()
		c.close()
		maxCPU := 0.0
		for _, u := range want.ShardCPUPct {
			maxCPU = max(maxCPU, u)
		}
		got := []float64{
			float64(r.Bytes) / 1e6 / r.Elapsed.Seconds(),
			r.Lat.Quantile(0.50).Micros(), r.Lat.Quantile(0.95).Micros(), r.Lat.Quantile(0.99).Micros(),
			float64(r.Stalls), float64(r.MaxOutstanding), r.Layers.MaxServerCPUPct,
		}
		exp := []float64{
			want.MBps, want.P50Micros, want.P95Micros, want.P99Micros,
			float64(want.Stalls), float64(want.MaxOutstanding), maxCPU,
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Errorf("%s: benchmark cell %v, trace experiment %v", system, got, exp)
				break
			}
		}
	}
}

// runCLI runs the command in this process and parses its output.
func runCLI(t *testing.T, args ...string) report {
	t.Helper()
	var out strings.Builder
	if code := run(args, &out); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, out.String())
	}
	var workload string
	trace := 0
	for i, a := range args {
		switch a {
		case "-workload":
			workload = args[i+1]
		case "-trace":
			if args[i+1] == "1" {
				trace = 1
			}
		}
	}
	rep, err := parseChild(workload, trace, out.String())
	if err != nil {
		t.Fatalf("bench %v: %v\n%s", args, err, out.String())
	}
	return rep
}

// TestSmoke runs every workload twice at a tiny scale through the
// command line: every run is correct, prints every end-to-end metric,
// and repeats its simulated results exactly.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			args := []string{"-workload", w.Name, "-scale", "0.02", "-seconds", "0.001"}
			a, b := runCLI(t, args...), runCLI(t, args...)
			if !a.Correct || a.Failed != 0 || a.Attempted == 0 {
				t.Fatalf("run not correct: %+v", a)
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Fatalf("printed %d metrics, want %d", len(a.Metrics), len(endToEnd))
			}
			if a.Digest == "" || a.Digest != b.Digest {
				t.Fatalf("sim_digest %q then %q", a.Digest, b.Digest)
			}
			for i, v := range a.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %v, want > 0", v.Name, v.Value)
				}
				if strings.HasPrefix(v.Name, "sim_") && v != b.Metrics[i] {
					t.Errorf("%s: %v then %v", v.Name, v, b.Metrics[i])
				}
			}
		})
	}
}

// TestSlicedPassRepeatsWholePass checks that stopping the scheduler at
// slice boundaries leaves the simulation as it was: a sliced pass gives
// the digest of the unsliced first pass, and has every slice and
// reference chunk.
func TestSlicedPassRepeatsWholePass(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			sl := newSlicer()
			o := options{Seed: w.Seed, Scale: 0.02}
			whole, err := runPass(w, o, nil, sl)
			if err != nil {
				t.Fatal(err)
			}
			sliced, err := runPass(w, o, nil, sl)
			if err != nil {
				t.Fatal(err)
			}
			if whole.digest() != sliced.digest() {
				t.Fatalf("sliced pass digest %s, whole pass %s", sliced.digest(), whole.digest())
			}
			for c, cut := range sliced.Slices {
				if len(cut) != slices || len(whole.Slices[c]) != 1 {
					t.Errorf("cell %d: %d slices sliced, %d whole", c, len(cut), len(whole.Slices[c]))
				}
			}
			// Two chunks around each set-up, one at each stop.
			if want := len(w.Cells) * (slices + 1); len(sliced.Refs) != want {
				t.Errorf("%d reference chunks, want %d", len(sliced.Refs), want)
			}
		})
	}
}

// TestCalibratedSeconds checks the host-time estimators on synthetic
// passes: cpu_s sums each slice's fastest time, scaled by the fastest
// reference chunks; setup_s is the median of each pass's calibrated
// set-up; a machine slower by the same factor throughout changes
// neither.
func TestCalibratedSeconds(t *testing.T) {
	ms := time.Millisecond
	passes := func(slow time.Duration) []passResult {
		return []passResult{
			{Setup: 999 * ms}, // the first pass only warms up
			{Setup: slow * 30 * ms, Slices: [][]time.Duration{{slow * 10 * ms, slow * 30 * ms}}, Refs: []time.Duration{slow * 2 * refNominal, slow * refNominal}},
			{Setup: slow * 20 * ms, Slices: [][]time.Duration{{slow * 20 * ms, slow * 15 * ms}}, Refs: []time.Duration{slow * refNominal, slow * refNominal}},
			{Setup: slow * 60 * ms, Slices: [][]time.Duration{{slow * 40 * ms, slow * 40 * ms}}, Refs: []time.Duration{slow * 2 * refNominal, slow * 2 * refNominal}},
		}
	}
	for _, slow := range []time.Duration{1, 3} {
		d := runData{passes: passes(slow)}
		if got, want := d.cpuSeconds(), 0.025; math.Abs(got-want) > 1e-12 {
			t.Errorf("slowdown %d: cpu_s %v, want %v", slow, got, want)
		}
		// Calibrated set-ups: 30/1.5, 20/1 and 60/2 ms.
		if got, want := d.setupSeconds(), 0.020; math.Abs(got-want) > 1e-12 {
			t.Errorf("slowdown %d: setup_s %v, want %v", slow, got, want)
		}
	}
}

// TestTracedSmoke runs one traced pass at a tiny scale: every per-layer
// metric is printed, and the observed and profiled passes repeat the
// untraced simulation exactly (the run is correct only if they do).
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every microbenchmark")
	}
	rep := runCLI(t, "-workload", "replay-writeback", "-scale", "0.02", "-seconds", "0.001", "-trace", "1")
	if !rep.Correct {
		t.Fatalf("traced run not correct: %+v", rep.Problems)
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Fatalf("printed %d metrics, want %d", len(rep.Metrics), len(perLayer))
	}
	got := map[string]float64{}
	for _, v := range rep.Metrics {
		got[v.Name] = v.Value
	}
	for _, name := range []string{"sim.events", "sim.block_wake_ns", "rpc.udp_rtt_events", "wb.flushes", "phase.wire.mean_us"} {
		if got[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, got[name])
		}
	}
	total := 0.0
	for _, l := range shareLayers {
		total += got["host_share."+l]
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("host shares sum to %v%%", total)
	}
}

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the code
// from drifting: the same workloads and metrics, in the same order,
// with the same units, directions and bounds, all within the file's
// naming rules.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, js []jsonMetric, code []metric, bounded bool) {
		if len(js) != len(code) {
			t.Fatalf("%s: json has %d metrics, code %d", kind, len(js), len(code))
		}
		for i, m := range code {
			want := jsonMetric{m.Name, m.Unit, m.Better, m.Bound}
			if js[i] != want {
				t.Errorf("%s %d: json %+v, code %+v", kind, i, js[i], want)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, m.Name, m.Unit)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s defined twice", m.Name)
		}
		seen[m.Name] = true
	}
	setup, _ := lookupMetric("setup_s")
	for _, m := range endToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for _, m := range micros {
		if _, ok := lookupMetric(m.Name + "_ns"); !ok {
			t.Errorf("microbenchmark %s reports no metric", m.Name)
		}
	}
}

// TestClassify checks the host-share attribution rules on synthetic
// stacks, innermost frame first.
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chansend", "danas/internal/sim.(*Scheduler).wake", "danas/internal/sim.(*Proc).Sleep.func1"}, "sim.handoff"},
		{[]string{"container/heap.down", "danas/internal/sim.(*Scheduler).runUntil"}, "sim.queue"},
		{[]string{"danas/internal/sim.eventHeap.Less", "container/heap.up"}, "sim.queue"},
		{[]string{"danas/internal/sim.(*Station).ServeAt"}, "sim.other"},
		{[]string{"runtime.mallocgc", "danas/internal/netsim.(*Fabric).sendCrossLeaf.func1", "danas/internal/sim.(*Scheduler).runUntil"}, "netsim"},
		{[]string{"danas/internal/lint/load.Load"}, "other"},
		{[]string{"sort.Slice", "main.sortedLats"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "runtime"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestDecodeProfile decodes a real CPU profile of simulator work and
// finds the kernel in it.
func TestDecodeProfile(t *testing.T) {
	var lp layerProfile
	if err := lp.start(); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	s := sim.New()
	s.Go("sleeper", func(p *sim.Proc) {
		for j := 0; j < 500000; j++ {
			p.Sleep(1)
		}
	})
	s.Run()
	s.Close()
	pprof.StopCPUProfile()
	stacks, counts, err := decodeProfile(lp.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 || len(stacks) != len(counts) {
		t.Fatalf("decoded %d stacks, %d counts", len(stacks), len(counts))
	}
	kernel := false
	for _, st := range stacks {
		if strings.HasPrefix(classify(st), "sim.") {
			kernel = true
		}
	}
	if !kernel {
		t.Errorf("no sample charged to the sim kernel in %d stacks", len(stacks))
	}
	if _, _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decoded garbage without error")
	}
}

// TestCompareFlagsRegressions checks -compare against a hand-made
// ledger: a cpu_s worse by more than its bound is flagged, a better
// one and an unbounded per-layer change are not, and a changed digest
// at the ledger's seed is.
func TestCompareFlagsRegressions(t *testing.T) {
	base := ledger{Workloads: []report{{
		Workload: "replay-read", Seed: 42, Digest: "a",
		Metrics: []value{{"cpu_s", "s", 1}, {"sim_mbps", "MB/s", 100}},
	}, {
		Workload: "replay-read", Seed: 42, Trace: 1, Digest: "a",
		Metrics: []value{{"sim.events", "count", 100}},
	}}}
	cur := []report{{
		Workload: "replay-read", Seed: 42, Digest: "a",
		Metrics: []value{{"cpu_s", "s", 1.3}, {"sim_mbps", "MB/s", 101}},
	}, {
		Workload: "replay-read", Seed: 42, Trace: 1, Digest: "a",
		Metrics: []value{{"sim.events", "count", 200}},
	}}
	var out strings.Builder
	if n := compare(&out, base, cur); n != 1 || !strings.Contains(out.String(), "cpu_s") {
		t.Fatalf("flagged %d, want cpu_s only:\n%s", n, out.String())
	}
	cur[0].Metrics[0].Value = 0.9
	cur[0].Digest = "b"
	out.Reset()
	if n := compare(&out, base, cur); n != 1 || !strings.Contains(out.String(), "sim_digest changed") {
		t.Fatalf("flagged %d, want the digest only:\n%s", n, out.String())
	}
}
