// Command bench measures danas on two planes at once: the simulator's
// own host cost (CPU time, set-up time, memory) and the simulated
// system's performance (MB/s, ops/s, latency), on four fixed workloads,
// end to end and layer by layer. README.md describes the workloads and
// every metric.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                      # every workload, untraced
//	bash bench/run.sh -trace 1             # every workload, untraced then traced
//	bash bench/run.sh -workload replay-read -seed 7 -seconds 10 -trace 0
//
// With -workload the workload runs in this process and the last line
// of standard output is one JSON object: correct, attempted, failed,
// and the metrics of the run (end-to-end untraced, per-layer traced).
// Without it every workload runs in its own child process, one at a
// time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func main() {
	// The simulator runs one Proc at a time. With one P every coroutine
	// handoff stays on one thread rather than waking another through the
	// OS scheduler, the cheaper schedule and the steadier one to time.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout))
}

// config is the command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	out      string
	compare  string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "run one workload in this process (default: every workload, each in a child process)")
	fs.Uint64Var(&c.seed, "seed", 0, "input seed (0: each workload's shipping seed)")
	fs.Float64Var(&c.seconds, "seconds", 30, "host seconds to measure for, per workload and run")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics (profile, spans, microbenchmarks)")
	fs.Float64Var(&c.scale, "scale", 1, "multiplies every workload's operation count")
	fs.StringVar(&c.out, "out", "", "write the results as a JSON ledger to this file")
	fs.StringVar(&c.compare, "compare", "", "print each metric's change against this ledger and flag end-to-end regressions")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	case c.trace != 0 && c.trace != 1:
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", c.trace)
	case c.seconds <= 0 || c.scale <= 0:
		return c, fmt.Errorf("-seconds and -scale must be positive")
	}
	if c.workload != "" {
		if _, err := lookupWorkload(c.workload); err != nil {
			return c, err
		}
	}
	return c, nil
}

// run executes the command and returns its exit code.
func run(args []string, stdout io.Writer) int {
	c, err := parseFlags(args, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var reps []report
	if c.workload != "" {
		w, _ := lookupWorkload(c.workload)
		var rep report
		rep, err = runWorkload(w, c, stdout)
		reps = append(reps, rep)
	} else {
		reps, err = runChildren(c, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, r := range reps {
		if !r.Correct {
			code = 1
		}
	}
	if c.compare != "" {
		var base ledger
		if base, err = readLedger(c.compare); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if compare(stdout, base, reps) > 0 {
			code = 1
		}
	}
	if c.out != "" {
		if err = writeLedger(c.out, args, c, reps); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if c.workload != "" {
		if err := json.NewEncoder(stdout).Encode(reps[0].result()); err != nil {
			return 1
		}
	}
	return code
}

// report is one workload run, traced or not.
type report struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     int      `json:"trace"`
	Passes    int      `json:"passes"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Digest    string   `json:"sim_digest"`
	Metrics   []value  `json:"metrics"`
}

// resultValue and result are the final output line's shape.
type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

func (r report) result() result {
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	for _, v := range r.Metrics {
		res.Metrics[v.Name] = resultValue{v.Value, v.Unit}
	}
	return res
}

// runWorkload measures one workload in this process for c.seconds and
// prints what it measured.
func runWorkload(w *workloadDef, c config, stdout io.Writer) (report, error) {
	o := options{Seed: c.seed, Scale: c.scale}
	if o.Seed == 0 {
		o.Seed = w.Seed
	}
	rep := report{Workload: w.Name, Seed: o.Seed, Trace: c.trace}
	budget := time.Duration(c.seconds * float64(time.Second))
	start := time.Now()
	var d runData
	var problems []string
	// pass runs one pass and checks its outputs against the inputs and
	// against the first pass: the simulation must repeat exactly.
	pass := func(po options, prof *layerProfile, sl *slicer) (passResult, error) {
		pr, err := runPass(w, po, prof, sl)
		if err != nil {
			return pr, err
		}
		problems = append(problems, pr.check()...)
		if rep.Digest == "" {
			rep.Digest = pr.digest()
		} else if dg := pr.digest(); dg != rep.Digest {
			problems = append(problems, fmt.Sprintf("pass %d: simulated results differ from the first pass (digest %s, want %s)", rep.Passes, dg, rep.Digest))
		}
		rep.Passes++
		for _, cr := range pr.Cells {
			rep.Attempted += cr.Attempted
			rep.Failed += cr.Failed
		}
		if d.cells == nil {
			d.cells = pr.Cells
		}
		return pr, nil
	}
	metrics := endToEnd
	if c.trace == 0 {
		// A pass starts only if one as long as the last still fits in the
		// budget, so a run ends within -seconds once its first pass has.
		sl := newSlicer()
		var last time.Duration
		for len(d.passes) == 0 || time.Since(start)+last < budget {
			t := time.Now()
			pr, err := pass(o, nil, sl)
			if err != nil {
				return rep, err
			}
			last = time.Since(t)
			// Every pass repeats the first one's simulated results
			// (checked above), so only its copy is kept: memory stays
			// flat however many passes fit in the run.
			pr.Cells = nil
			d.passes = append(d.passes, pr)
		}
		d.rssMB = peakRSSMB()
	} else {
		metrics = perLayer
		// Untraced and observed passes alternate, twice each, so the
		// tracing overhead compares like with like.
		observed := o
		observed.Observe = true
		var refCPU, obsCPU time.Duration
		for i := 0; i < 2; i++ {
			ref, err := pass(o, nil, nil)
			if err != nil {
				return rep, err
			}
			obsd, err := pass(observed, nil, nil)
			if err != nil {
				return rep, err
			}
			refCPU += ref.Run
			obsCPU += obsd.Run
			d.passes, d.observed = []passResult{ref}, obsd
		}
		d.overheadPct = (ratio(float64(obsCPU), float64(refCPU)) - 1) * 100
		d.profile = &layerProfile{}
		for i, last := 0, time.Duration(0); i == 0 || time.Since(start)+last < budget; i++ {
			t := time.Now()
			if _, err := pass(o, d.profile, nil); err != nil {
				return rep, err
			}
			last = time.Since(t)
		}
		d.micro = runMicros()
		for _, m := range micros {
			if d.micro[m.Name].N == 0 {
				problems = append(problems, "microbenchmark "+m.Name+" failed")
			}
		}
	}
	rep.Problems = problems
	rep.Correct = len(problems) == 0
	rep.Metrics = measure(metrics, &d)
	printReport(stdout, rep, d.cells)
	if c.trace == 0 {
		ps := d.timed()
		fmt.Fprintf(stdout, "  calibration: %d timed passes, reference chunk %.1f us (calibrated to %.0f us), uncalibrated median measured phase %.4f s, set-up %.4f s\n",
			len(ps), float64(meanRef(ps[len(ps)-1]))/1e3, float64(refNominal)/1e3,
			median(passSeconds(ps, func(p passResult) time.Duration { return p.Run })),
			median(passSeconds(ps, func(p passResult) time.Duration { return p.Setup })))
	}
	return rep, nil
}

// runMicros runs every microbenchmark through testing.Benchmark with a
// short benchtime, restoring the testing package's setting afterwards.
func runMicros() map[string]testing.BenchmarkResult {
	testing.Init()
	bt := flag.Lookup("test.benchtime").Value
	old := bt.String()
	if err := bt.Set("200ms"); err != nil {
		panic("bench: " + err.Error())
	}
	defer bt.Set(old) // old came from this flag, so it parses
	res := make(map[string]testing.BenchmarkResult, len(micros))
	for _, m := range micros {
		res[m.Name] = testing.Benchmark(m.Fn)
	}
	return res
}

// printReport prints a run for a reader: the per-cell simulated results,
// the digest, and every metric with its unit.
func printReport(w io.Writer, r report, cells []cellResult) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  passes %d\n", r.Workload, r.Seed, r.Trace, r.Passes)
	for _, c := range cells {
		lats := sortedLats([]cellResult{c})
		fmt.Fprintf(w, "  cell %-16s ops=%d failed=%d sim=%.1fms p50=%.1fus p99=%.1fus stalls=%d\n",
			c.System, c.Ops, c.Failed, c.Elapsed.Seconds()*1e3,
			quantile(lats, 0.50).Micros(), quantile(lats, 0.99).Micros(), c.Stalls)
	}
	fmt.Fprintf(w, "  ops_failed %d of %d attempted\n", r.Failed, r.Attempted)
	fmt.Fprintf(w, "  sim_digest %s\n", r.Digest)
	for _, v := range r.Metrics {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", v.Name, v.Value, v.Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// runChildren runs every workload in its own child process, one at a
// time (untraced, then traced with -trace 1), and collects their
// reports.
func runChildren(c config, stdout io.Writer) ([]report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reps []report
	for trace := 0; trace <= c.trace; trace++ {
		for _, w := range workloads {
			args := []string{
				"-workload", w.Name,
				"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
				"-scale", strconv.FormatFloat(c.scale, 'g', -1, 64),
				"-trace", strconv.Itoa(trace),
			}
			if c.seed != 0 {
				args = append(args, "-seed", strconv.FormatUint(c.seed, 10))
			}
			var out strings.Builder
			cmd := exec.Command(exe, args...)
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			rep, err := parseChild(w.Name, trace, out.String())
			if err != nil {
				return reps, fmt.Errorf("workload %s: %v (%v)", w.Name, err, runErr)
			}
			reps = append(reps, rep)
		}
	}
	return reps, nil
}

// parseChild rebuilds a child's report from its output: the header and
// digest lines and the final JSON line.
func parseChild(name string, trace int, out string) (report, error) {
	rep := report{Workload: name, Trace: trace}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return rep, fmt.Errorf("no result line: %v", err)
	}
	rep.Correct, rep.Attempted, rep.Failed = res.Correct, res.Attempted, res.Failed
	for _, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) >= 8 && f[0] == "workload":
			rep.Seed, _ = strconv.ParseUint(f[3], 10, 64)
			rep.Passes, _ = strconv.Atoi(f[7])
		case len(f) == 2 && f[0] == "sim_digest":
			rep.Digest = f[1]
		case len(f) >= 3 && f[0] == "CHECK":
			rep.Problems = append(rep.Problems, strings.TrimPrefix(strings.TrimSpace(l), "CHECK FAILED: "))
		}
	}
	ms := endToEnd
	if trace == 1 {
		ms = perLayer
	}
	for _, m := range ms {
		if v, ok := res.Metrics[m.Name]; ok {
			rep.Metrics = append(rep.Metrics, value{m.Name, v.Unit, v.Value})
		}
	}
	return rep, nil
}

// ledger is the JSON file -out writes and -compare reads.
type ledger struct {
	Command   string   `json:"command"`
	Go        string   `json:"go"`
	Platform  string   `json:"platform"`
	CPUs      int      `json:"cpus"`
	Seconds   float64  `json:"seconds"`
	Scale     float64  `json:"scale"`
	Workloads []report `json:"workloads"`
}

func writeLedger(path string, args []string, c config, reps []report) error {
	l := ledger{
		Command:   strings.Join(append([]string{"bash", "bench/run.sh"}, args...), " "),
		Go:        runtime.Version(),
		Platform:  runtime.GOOS + "/" + runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Seconds:   c.seconds,
		Scale:     c.scale,
		Workloads: reps,
	}
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readLedger(path string) (ledger, error) {
	var l ledger
	b, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err = json.Unmarshal(b, &l); err != nil {
		return l, fmt.Errorf("ledger %s: %v", path, err)
	}
	return l, nil
}

// compare prints every metric's change against the ledger entry for
// the same workload and trace mode, and returns how many end-to-end
// metrics are worse than their bound. A changed sim_digest at the
// ledger's seed means the simulated outputs moved: a model change, not
// an optimisation.
func compare(w io.Writer, base ledger, reps []report) int {
	flagged := 0
	for _, r := range reps {
		var b *report
		for i := range base.Workloads {
			if bw := &base.Workloads[i]; bw.Workload == r.Workload && bw.Trace == r.Trace {
				b = bw
			}
		}
		if b == nil {
			fmt.Fprintf(w, "compare %s trace %d: not in the ledger\n", r.Workload, r.Trace)
			continue
		}
		fmt.Fprintf(w, "compare %s trace %d against the ledger\n", r.Workload, r.Trace)
		if r.Seed == b.Seed && r.Digest != b.Digest {
			fmt.Fprintf(w, "  sim_digest changed at seed %d: %s -> %s (simulated outputs moved)  FLAGGED\n", r.Seed, b.Digest, r.Digest)
			flagged++
		}
		for _, v := range r.Metrics {
			var old *value
			for i := range b.Metrics {
				if b.Metrics[i].Name == v.Name {
					old = &b.Metrics[i]
				}
			}
			if old == nil {
				continue
			}
			delta := ratio(v.Value-old.Value, old.Value) * 100
			mark := ""
			if m, ok := lookupMetric(v.Name); ok && m.Bound > 0 && worse(m, old.Value, v.Value) > m.Bound {
				mark = fmt.Sprintf("  FLAGGED (bound %.0f%%)", m.Bound*100)
				flagged++
			}
			fmt.Fprintf(w, "  %-32s %14.6g -> %-14.6g %s %+7.2f%%%s\n", v.Name, old.Value, v.Value, v.Unit, delta, mark)
		}
	}
	return flagged
}

// worse is how much worse cur is than base, as a share of base, in the
// metric's direction (negative when better).
func worse(m metric, base, cur float64) float64 {
	d := ratio(cur-base, base)
	if m.Better == higher {
		return -d
	}
	return d
}
