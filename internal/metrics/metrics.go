// Package metrics provides the measurement primitives used by every
// experiment: counters, latency histograms, throughput accounting, and
// simple table formatting for paper-style output.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"danas/internal/sim"
)

// Counter is a monotonically increasing count with an associated byte total,
// convenient for I/O operations.
type Counter struct {
	Name  string
	Ops   uint64
	Bytes int64
}

// Add records one operation moving n bytes.
func (c *Counter) Add(n int64) {
	c.Ops++
	c.Bytes += n
}

// ThroughputMBps returns the mean throughput in MB/s (10^6 bytes per
// second, the paper's unit) over the elapsed interval.
func (c *Counter) ThroughputMBps(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Bytes) / 1e6 / elapsed.Seconds()
}

// OpsPerSec returns the mean operation rate over the elapsed interval.
func (c *Counter) OpsPerSec(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Ops) / elapsed.Seconds()
}

// Hist is a latency histogram with exact mean and approximate quantiles
// (power-of-two-spaced buckets from 1 µs to ~1 s, 8 sub-buckets per octave).
// The bucket array is allocated lazily on the first sample, so fleets of
// hundreds of idle-dimension histograms cost a pointer each, not ~1.3 KB.
type Hist struct {
	Name    string
	count   uint64
	sum     float64
	min     sim.Duration
	max     sim.Duration
	buckets []uint64 // nil until the first Observe; len bucketCount after
}

const (
	subBuckets  = 8
	octaves     = 21 // 1us .. 2^21us ~ 2s
	bucketCount = octaves * subBuckets
)

func bucketIndex(d sim.Duration) int {
	us := d.Micros()
	if us < 1 {
		return 0
	}
	oct := 0
	v := us
	for v >= 2 && oct < octaves-1 {
		v /= 2
		oct++
	}
	sub := int((v - 1) * subBuckets)
	if sub >= subBuckets {
		sub = subBuckets - 1
	}
	i := oct*subBuckets + sub
	if i >= bucketCount {
		i = bucketCount - 1
	}
	return i
}

func bucketUpper(i int) sim.Duration {
	oct := i / subBuckets
	sub := i % subBuckets
	us := (1 + float64(sub+1)/subBuckets) * float64(uint64(1)<<oct)
	return sim.Micros(us)
}

// Observe records one sample.
func (h *Hist) Observe(d sim.Duration) {
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += float64(d)
	if h.buckets == nil {
		h.buckets = make([]uint64, bucketCount)
	}
	h.buckets[bucketIndex(d)]++
}

// Merge folds other's samples into h: counts, sums, extremes, and
// buckets add. The fabric sweep merges per-client histograms into one
// fleet-wide distribution this way.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	if h.buckets == nil {
		h.buckets = make([]uint64, bucketCount)
	}
	for i, b := range other.buckets {
		h.buckets[i] += b
	}
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the exact mean latency.
func (h *Hist) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.count))
}

// Min and Max return the exact extremes.
func (h *Hist) Min() sim.Duration { return h.min }
func (h *Hist) Max() sim.Duration { return h.max }

// Quantile returns an approximate q-quantile (0 < q <= 1) as the upper edge
// of the bucket containing it.
func (h *Hist) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var acc uint64
	for i, b := range h.buckets {
		acc += b
		if acc > target {
			return bucketUpper(i)
		}
	}
	return h.max
}

// String summarizes the histogram.
func (h *Hist) String() string {
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p99=%v max=%v",
		h.Name, h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.max)
}

// Point is one (x, series→y) row of a figure.
type Point struct {
	X      float64
	Values map[string]float64
}

// Table accumulates figure data: a set of named series sampled at shared X
// positions, plus formatting for terminal output. It reproduces the
// "rows/series the paper reports".
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series []string
	points []Point
}

// NewTable creates a table for the given series names.
func NewTable(title, xlabel, ylabel string, series ...string) *Table {
	return &Table{Title: title, XLabel: xlabel, YLabel: ylabel, Series: series}
}

// Set records the value of series at x, creating the row as needed.
func (t *Table) Set(x float64, series string, value float64) {
	for i := range t.points {
		if t.points[i].X == x {
			t.points[i].Values[series] = value
			return
		}
	}
	t.points = append(t.points, Point{X: x, Values: map[string]float64{series: value}})
	sort.Slice(t.points, func(i, j int) bool { return t.points[i].X < t.points[j].X })
}

// Get returns the value of series at x.
func (t *Table) Get(x float64, series string) (float64, bool) {
	for i := range t.points {
		if t.points[i].X == x {
			v, ok := t.points[i].Values[series]
			return v, ok
		}
	}
	return 0, false
}

// Points returns the rows in ascending X order.
func (t *Table) Points() []Point { return t.points }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%16s", s)
	}
	fmt.Fprintf(&b, "    (%s)\n", t.YLabel)
	for _, pt := range t.points {
		fmt.Fprintf(&b, "%-12g", pt.X)
		for _, s := range t.Series {
			if v, ok := pt.Values[s]; ok {
				fmt.Fprintf(&b, "%16.1f", v)
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PctList renders per-shard percentages compactly ("[12.5 3.0]"), the
// form every per-cell detail line uses.
func PctList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.1f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
