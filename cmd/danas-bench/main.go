// Command danas-bench regenerates every table and figure of the paper's
// evaluation (plus this reproduction's ablations) and prints them in
// paper-style rows/series.
//
// Usage:
//
//	danas-bench [-scale f] [-parallel n] [-exper names] [experiment|all]...
//	danas-bench [-scale f] [-parallel n] -scenario file-or-name[,...] [-scenario-validate]
//	danas-bench [-scale f] [-parallel n] -scenario file-or-name [-trace-out f] [-telemetry-out f]
//	danas-bench [-scale f] [-parallel n] -scenario-seed n [-scenario-count m]
//
// The experiment names accepted positionally and by -exper come from the
// registry in this file; run danas-bench -h for the generated list, which
// therefore cannot drift from the runnable set. With no experiment
// arguments it runs everything. Experiments can be named positionally or
// via -exper (comma-separated); the two forms combine. -scale shrinks file sizes and operation counts (default 1.0,
// already reduced from paper scale; the steady states are identical).
// -parallel runs each experiment's cells across n OS workers; every cell
// owns an independent simulation, so output is byte-identical to the
// serial run.
//
// -scenario runs declarative scenarios through the scenario engine
// instead of experiments: each item is either a canned scenario name
// (the list in -h comes from the registry) or a path to a scenario
// file. -scenario-validate parses and validates without running.
// -scenario-seed generates and runs a seeded random stress fleet. A
// failed scenario assertion exits 1.
//
// -trace-out and -telemetry-out attach deterministic observability
// exports to a single scenario run: per-op spans as Chrome trace-event
// JSON (loadable in Perfetto) and the fleet gauge time series as TSV.
// Both require exactly one -scenario item and are byte-identical
// across reruns and -parallel widths.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"danas/internal/exper"
	"danas/internal/scenario"
)

// known maps every runnable experiment name to its generator — the
// registry the -exper flag's help text and name validation both derive
// from, so the documented names can never drift from the runnable ones.
var known = map[string]func(exper.Scale){
	"table2":       runTable2,
	"table3":       runTable3,
	"fig3":         runFig3,
	"fig4":         runFig4,
	"fig34":        runFig34,
	"fig5":         runFig5,
	"fig6":         runFig6,
	"fig7":         runFig7,
	"scaling":      runScaling,
	"scaling-grid": runScalingGrid,
	"ablations":    runAblations,
	"trace":        runTrace,
	"failure":      runFailure,
	"writemix":     runWriteMix,
	"replication":  runReplication,
	"fabric":       runFabric,
}

// order is what "all" runs; it uses the combined fig34 so the Figure 3/4
// sweep runs once. New experiments append so earlier sections stay
// byte-identical.
var order = []string{"table2", "fig34", "fig5", "table3", "fig6", "fig7", "scaling", "scaling-grid", "ablations", "trace", "failure", "writemix", "replication", "fabric"}

// validNames returns every accepted experiment argument, sorted.
func validNames() []string {
	names := make([]string, 0, len(known)+1)
	for n := range known {
		names = append(names, n)
	}
	names = append(names, "all")
	sort.Strings(names)
	return names
}

func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "danas-bench: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	scaleFlag := flag.Float64("scale", 1.0, "workload scale factor (file sizes, op counts)")
	parallelFlag := flag.Int("parallel", 1, "worker-pool width for experiment cells (1 = serial)")
	// The help text is generated from the registry, not hand-written, so
	// it cannot drift from the registered names.
	experFlag := flag.String("exper", "",
		"comma-separated experiment names to run (combines with positional args; valid: "+
			strings.Join(validNames(), " ")+")")
	// The canned-scenario list is generated from the scenario registry,
	// same no-drift rule as the experiment names.
	scenarioFlag := flag.String("scenario", "",
		"comma-separated scenario files or canned names to run (canned: "+
			strings.Join(scenario.Names(), " ")+")")
	scenarioValidate := flag.Bool("scenario-validate", false,
		"parse and validate -scenario items without running them")
	scenarioSeed := flag.Uint64("scenario-seed", 0,
		"generate and run a seeded random stress-scenario fleet")
	scenarioCount := flag.Int("scenario-count", 8,
		"number of stress scenarios to generate with -scenario-seed")
	traceOut := flag.String("trace-out", "",
		"write the run's per-op spans as Chrome trace-event JSON (Perfetto-loadable) to this file; requires exactly one -scenario item")
	telemetryOut := flag.String("telemetry-out", "",
		"write the run's gauge time series as TSV to this file; requires exactly one -scenario item")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: danas-bench [flags] [%s]...\n", strings.Join(validNames(), "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *scaleFlag <= 0 {
		usageErr("-scale must be positive, got %g", *scaleFlag)
	}
	if *parallelFlag < 1 {
		usageErr("-parallel must be at least 1, got %d", *parallelFlag)
	}
	scale := exper.Scale(*scaleFlag)
	exper.SetParallelism(*parallelFlag)

	// Zero is a legitimate stress seed, so detect the flag's presence
	// rather than its value.
	stressMode := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "scenario-seed" {
			stressMode = true
		}
	})
	ob := obsOuts{Trace: *traceOut, Telemetry: *telemetryOut}
	if *scenarioFlag != "" || stressMode {
		if len(flag.Args()) > 0 || *experFlag != "" {
			usageErr("scenario flags do not combine with experiment arguments")
		}
		runScenarios(*scenarioFlag, *scenarioValidate, stressMode, *scenarioSeed, *scenarioCount, scale, ob)
		return
	}
	if *scenarioValidate {
		usageErr("-scenario-validate requires -scenario")
	}
	if ob.enabled() {
		usageErr("%v", fmt.Errorf("%w: require -scenario", ErrObsFlag))
	}

	args := flag.Args()
	for _, name := range strings.Split(*experFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			args = append(args, name)
		}
	}
	if len(args) == 0 {
		args = []string{"all"}
	}
	// Validate every name before running anything.
	for _, a := range args {
		if _, ok := known[a]; !ok && a != "all" {
			usageErr("unknown experiment %q (valid: %s)", a, strings.Join(validNames(), " "))
		}
	}
	for _, a := range args {
		if a == "all" {
			for _, name := range order {
				known[name](scale)
			}
			continue
		}
		known[a](scale)
	}
}

func runTable2(scale exper.Scale) {
	fmt.Println("== Table 2: baseline network performance ==")
	fmt.Printf("%-16s %12s %12s   (paper: RTT us / BW MB/s)\n", "protocol", "RTT (us)", "BW (MB/s)")
	paper := map[string]string{
		"GM":           "23 / 244",
		"VI poll":      "23 / 244",
		"VI block":     "53 / 244",
		"UDP/Ethernet": "80 / 166",
	}
	for _, r := range exper.Table2(scale) {
		fmt.Printf("%-16s %12.1f %12.1f   paper: %s\n", r.Protocol, r.RTTMicros, r.MBps, paper[r.Protocol])
	}
	fmt.Println()
}

func runTable3(scale exper.Scale) {
	fmt.Println("== Table 3: I/O response time, 4KB reads (us) ==")
	fmt.Printf("%-20s %12s %12s   (paper: in mem / in cache)\n", "mechanism", "in mem", "in cache")
	paper := map[string]string{
		"RPC in-line read": "128 / 153",
		"RPC direct read":  "144 / 144",
		"ORDMA read":       "92 / 92",
	}
	for _, r := range exper.Table3(scale) {
		fmt.Printf("%-20s %12.1f %12.1f   paper: %s\n", r.Mechanism, r.InMemMicros, r.InCacheMicros, paper[r.Mechanism])
	}
	fmt.Println()
}

func runFig3(scale exper.Scale) {
	thr, _ := exper.Fig34(scale)
	fmt.Println("== Figure 3 ==")
	fmt.Print(thr)
	fmt.Println()
}

func runFig4(scale exper.Scale) {
	_, cpu := exper.Fig34(scale)
	fmt.Println("== Figure 4 ==")
	fmt.Print(cpu)
	fmt.Println()
}

// runFig34 prints Figures 3 and 4 from one sweep (each cell measures
// both throughput and client CPU).
func runFig34(scale exper.Scale) {
	thr, cpu := exper.Fig34(scale)
	fmt.Println("== Figure 3 ==")
	fmt.Print(thr)
	fmt.Println()
	fmt.Println("== Figure 4 ==")
	fmt.Print(cpu)
	fmt.Println()
}

func runFig5(scale exper.Scale) {
	fmt.Println("== Figure 5 ==")
	fmt.Print(exper.Fig5(scale))
	fmt.Println()
}

func runFig6(scale exper.Scale) {
	fmt.Println("== Figure 6 ==")
	txns, cpu := exper.Fig6(scale)
	fmt.Print(txns)
	fmt.Println()
	fmt.Print(cpu)
	fmt.Println()
}

func runFig7(scale exper.Scale) {
	fmt.Println("== Figure 7 ==")
	fmt.Print(exper.Fig7(scale))
	fmt.Println()
}

func runScaling(scale exper.Scale) {
	fmt.Println("== Figure 8: multi-client scale-out ==")
	thr, resp, cpu, link := exper.ScalingTables(exper.Scaling(scale))
	fmt.Print(thr)
	fmt.Println()
	fmt.Print(resp)
	fmt.Println()
	fmt.Print(cpu)
	fmt.Println()
	fmt.Print(link)
	fmt.Println()
}

func runScalingGrid(scale exper.Scale) {
	fmt.Println("== Figure 9: clients × shards scaling grid ==")
	fmt.Print(exper.FormatScalingGrid(exper.ScalingGrid(scale)))
	fmt.Println()
}

// resolveScenarios turns each -scenario item into a validated spec:
// canned names resolve through the registry first; anything with a path
// separator or extension is read as a scenario file.
func resolveScenarios(items []string) []*scenario.Spec {
	specs := make([]*scenario.Spec, 0, len(items))
	for _, item := range items {
		if sp, ok := scenario.Lookup(item); ok {
			specs = append(specs, sp)
			continue
		}
		if !strings.ContainsAny(item, "/.") {
			usageErr("unknown scenario %q (canned: %s; or pass a file path)",
				item, strings.Join(scenario.Names(), " "))
		}
		src, err := os.ReadFile(item)
		if err != nil {
			usageErr("%v", err)
		}
		sp, err := scenario.Parse(string(src))
		if err != nil {
			usageErr("%s: %v", item, err)
		}
		specs = append(specs, sp)
	}
	return specs
}

// ErrObsFlag classifies a misuse of the observability output flags, so
// the validation is testable without exercising os.Exit.
var ErrObsFlag = errors.New("-trace-out/-telemetry-out")

// obsOuts carries the observability output destinations through the
// scenario entry point.
type obsOuts struct {
	Trace, Telemetry string
}

func (o obsOuts) enabled() bool { return o.Trace != "" || o.Telemetry != "" }

// checkObsFlags validates the observability outputs against the rest
// of the invocation: they attach a deterministic export to exactly one
// scenario run, so batches, stress fleets and validate-only passes are
// rejected. The error wraps ErrObsFlag.
func checkObsFlags(ob obsOuts, nSpecs int, validateOnly, stress bool) error {
	if !ob.enabled() {
		return nil
	}
	switch {
	case stress:
		return fmt.Errorf("%w: do not combine with -scenario-seed", ErrObsFlag)
	case validateOnly:
		return fmt.Errorf("%w: do not combine with -scenario-validate", ErrObsFlag)
	case nSpecs != 1:
		return fmt.Errorf("%w: require exactly one -scenario item, got %d", ErrObsFlag, nSpecs)
	}
	return nil
}

// runScenarios is the -scenario/-scenario-seed entry point. A spec that
// cannot parse or validate exits 2 (usage error); a scenario that runs
// but fails an assertion exits 1.
func runScenarios(list string, validateOnly, stress bool, seed uint64, count int, scale exper.Scale, ob obsOuts) {
	var specs []*scenario.Spec
	if stress {
		if list != "" {
			usageErr("-scenario-seed does not combine with -scenario")
		}
		if count < 1 {
			usageErr("-scenario-count must be at least 1, got %d", count)
		}
		specs = scenario.Stress(seed, count)
	} else {
		var items []string
		for _, it := range strings.Split(list, ",") {
			if it = strings.TrimSpace(it); it != "" {
				items = append(items, it)
			}
		}
		if len(items) == 0 {
			usageErr("-scenario needs at least one file or canned name")
		}
		specs = resolveScenarios(items)
	}
	if err := checkObsFlags(ob, len(specs), validateOnly, stress); err != nil {
		usageErr("%v", err)
	}
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			usageErr("%v", err)
		}
	}
	if validateOnly {
		for _, sp := range specs {
			fmt.Printf("scenario %s: valid\n", sp.Name)
		}
		return
	}
	if ob.enabled() {
		runObservedScenario(specs[0], scale, ob)
		return
	}
	reps, err := scenario.RunAll(specs, scale)
	if err != nil {
		usageErr("%v", err)
	}
	fmt.Print(scenario.FormatAll(reps))
	if !scenario.AllPass(reps) {
		os.Exit(1)
	}
}

// runObservedScenario runs one scenario with tracing armed and writes
// the requested exports. Export files are created before the run so a
// bad path is a usage error, not a wasted simulation.
func runObservedScenario(sp *scenario.Spec, scale exper.Scale, ob obsOuts) {
	opts := scenario.RunOpts{Observe: true}
	open := func(path string) *os.File {
		f, err := os.Create(path)
		if err != nil {
			usageErr("%v", err)
		}
		return f
	}
	var files []*os.File
	if ob.Trace != "" {
		f := open(ob.Trace)
		files, opts.TraceOut = append(files, f), f
	}
	if ob.Telemetry != "" {
		f := open(ob.Telemetry)
		files, opts.TelemetryOut = append(files, f), f
	}
	rep, err := scenario.RunObserved(sp, scale, opts)
	if err != nil {
		usageErr("%v", err)
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			usageErr("%v", err)
		}
	}
	fmt.Print(scenario.FormatAll([]*scenario.Report{rep}))
	if !rep.Pass {
		os.Exit(1)
	}
}

func runFailure(scale exper.Scale) {
	fmt.Println("== Failure injection: shard crash/restart and link degradation over the sharded fleet ==")
	fmt.Print(scenario.FormatFailure(scenario.Failure(scale)))
	fmt.Println()
}

func runTrace(scale exper.Scale) {
	fmt.Println("== Trace replay: open-loop Zipf read/write mix over the sharded fleet ==")
	fmt.Print(exper.FormatTraceReplay(exper.TraceReplay(scale)))
	fmt.Println()
}

func runReplication(scale exper.Scale) {
	fmt.Println("== Replication: ack policies x replica counts under a shard-0 primary crash ==")
	fmt.Print(scenario.FormatReplication(scenario.Replication(scale)))
	fmt.Println()
}

func runFabric(scale exper.Scale) {
	fmt.Println("== Fabric: switch-limited fleet sweep over oversubscribed leaf/spine topologies ==")
	fmt.Print(exper.FormatFabric(exper.FabricSweep(scale)))
	fmt.Println()
}

func runWriteMix(scale exper.Scale) {
	fmt.Println("== Write mix: read/write sweep over write-behind shards (unstable writes + periodic commits) ==")
	fmt.Print(scenario.FormatWriteMix(scenario.WriteMix(scale)))
	fmt.Println()
}

func runAblations(scale exper.Scale) {
	fmt.Println("== Ablations ==")
	fmt.Print(exper.AblationTLB(scale))
	fmt.Println()
	fmt.Print(exper.AblationCapability(scale))
	fmt.Println()
	fmt.Print(exper.AblationDirectory(scale))
	fmt.Println()
	fmt.Print(exper.AblationBatchIO(scale))
	fmt.Println()
	fmt.Print(exper.AblationSuccessRate(scale))
	fmt.Println()
	fmt.Print(exper.AblationWriteRatio(scale))
	fmt.Println()
}
