package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"danas/internal/obs"
	"danas/internal/sim"
)

// passResult is one pass: every cell of a workload set up and run once.
type passResult struct {
	// Setup and Run are host CPU time in set-up and in the measured
	// phase, summed over the cells.
	Setup, Run time.Duration
	// Slices holds, per cell, the CPU time of each slice of the measured
	// phase (see slicer); a pass run whole has one slice per cell.
	Slices [][]time.Duration
	// Refs holds the CPU time of every reference chunk the pass ran, in
	// the order it ran them.
	Refs  []time.Duration
	Cells []cellResult
	// Events, Mallocs and AllocBytes are counted over the measured
	// phases only.
	Events, Mallocs, AllocBytes uint64
}

// slices is how many slices of simulated time a measured phase is
// timed in once its length is known.
const slices = 64

// slicer times measured phases in slices of simulated time and
// calibrates them. A pass without it, or the first pass with it, runs
// each cell whole; the slicer then records how long each cell ran in
// simulated time. Later passes repeat that simulation exactly, so the
// slicer stops the scheduler at the same fixed fractions of it and
// reads the CPU clock at each stop: slice k of every pass does the same
// work, so a burst of other work on the machine that slowed it in some
// passes shows up as the slice's spread over the passes, not in its
// fastest run. At each stop, and before and after each set-up, it runs
// a reference chunk, so every stretch of host time has a measure of
// the machine's speed taken right beside it.
type slicer struct {
	length []sim.Duration // per cell
	ref    *refKernel
}

func newSlicer() *slicer { return &slicer{ref: newRefKernel()} }

// runPass sets up and runs every cell of w once, serially. A GC runs
// before each phase so collection debt from one phase is not paid in
// the next. When prof is non-nil the measured phases are CPU-profiled;
// when sl is non-nil they are timed in slices and calibrated.
func runPass(w *workloadDef, o options, prof *layerProfile, sl *slicer) (passResult, error) {
	var pr passResult
	calibrate := func() {
		if sl != nil {
			pr.Refs = append(pr.Refs, sl.ref.chunk())
		}
	}
	base := runtime.NumGoroutine()
	for i, system := range w.Cells {
		runtime.GC()
		calibrate()
		t0 := cpuTime()
		c, err := w.build(system, o)
		pr.Setup += cpuTime() - t0
		if err != nil {
			return pr, err
		}
		calibrate()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ev0 := c.sched.Events()
		if prof != nil {
			if err := prof.start(); err != nil {
				c.close()
				return pr, err
			}
		}
		begin := c.sched.Now()
		var cut []time.Duration
		t1 := cpuTime()
		c.start()
		if sl != nil && i < len(sl.length) {
			step := sl.length[i] / slices
			for k := 1; k < slices; k++ {
				// Events remain past every stop short of the phase's
				// end, so stopping leaves the simulated clock where an
				// unsliced run would have it.
				c.sched.RunUntil(begin.Add(step * sim.Duration(k)))
				cut = append(cut, cpuTime()-t1)
				calibrate()
				t1 = cpuTime()
			}
		}
		c.sched.Run()
		r := c.finish()
		cut = append(cut, cpuTime()-t1)
		if prof != nil {
			if err := prof.stop(); err != nil {
				c.close()
				return pr, err
			}
		}
		if sl != nil && i == len(sl.length) {
			sl.length = append(sl.length, c.sched.Now().Sub(begin))
		}
		runtime.ReadMemStats(&m1)
		for _, d := range cut {
			pr.Run += d
		}
		pr.Slices = append(pr.Slices, cut)
		pr.Events += c.sched.Events() - ev0
		pr.Mallocs += m1.Mallocs - m0.Mallocs
		pr.AllocBytes += m1.TotalAlloc - m0.TotalAlloc
		pr.Cells = append(pr.Cells, r)
		c.close()
		settle(base)
	}
	return pr, nil
}

// settle waits, up to a second, for the goroutines of a closed
// simulation to unwind, so their exit does not run inside the next
// timed phase.
func settle(base int) {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// check returns the ways a pass's outputs are wrong: failed or missing
// operations, or completed bytes that differ from what the inputs ask
// for.
func (pr passResult) check() []string {
	var bad []string
	for _, c := range pr.Cells {
		if c.Failed != 0 || c.Ops != c.Attempted {
			bad = append(bad, fmt.Sprintf("%s: %d of %d ops completed, %d failed", c.System, c.Ops, c.Attempted, c.Failed))
		}
		if c.Bytes != c.WantBytes {
			bad = append(bad, fmt.Sprintf("%s: %d bytes completed, inputs ask for %d", c.System, c.Bytes, c.WantBytes))
		}
	}
	return bad
}

// formatCell renders every simulated result of a cell, exactly.
func formatCell(c cellResult) string {
	lats := sortedLats([]cellResult{c})
	return fmt.Sprintf("%s attempted=%d ops=%d failed=%d bytes=%d elapsed=%d p50=%d p95=%d p99=%d hist=%d/%d/%d stalls=%d maxout=%d layers=%+v",
		c.System, c.Attempted, c.Ops, c.Failed, c.Bytes, c.Elapsed,
		quantile(lats, 0.50), quantile(lats, 0.95), quantile(lats, 0.99),
		c.Lat.Quantile(0.50), c.Lat.Quantile(0.95), c.Lat.Quantile(0.99),
		c.Stalls, c.MaxOutstanding, c.Layers)
}

// digest is the sha256 of the pass's formatted cell results: equal
// digests mean identical simulated outputs.
func (pr passResult) digest() string {
	h := sha256.New()
	for _, c := range pr.Cells {
		fmt.Fprintln(h, formatCell(c))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simTotals pools the cells' simulated results.
type simTotals struct {
	Ops, Bytes int64
	Seconds    float64 // summed simulated elapsed time
	Layers     layerCounts
	Stalls     int64
	MaxOut     int
	Spans      []*obs.Span
}

func totals(cells []cellResult) simTotals {
	var t simTotals
	for _, c := range cells {
		t.Ops += c.Ops
		t.Bytes += c.Bytes
		t.Seconds += c.Elapsed.Seconds()
		t.Layers.add(c.Layers)
		t.Stalls += c.Stalls
		t.MaxOut = max(t.MaxOut, c.MaxOutstanding)
		t.Spans = append(t.Spans, c.Spans...)
	}
	return t
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the CPU time the process has used, user and system, over
// all its threads. Unlike the wall clock it does not count the time the
// machine runs other work, so it holds steady on a shared host; with
// one P (see main) and a single-threaded simulation it otherwise equals
// the wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (getrusage
// ru_maxrss, kilobytes on Linux) in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
