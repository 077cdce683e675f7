package scenario

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"danas/internal/exper"
	"danas/internal/obs"
)

// probe is the scale the write-mix regime expectations were pinned at;
// the regimes (which phase dominates which mix) are scale-stable but
// the pinned dominance margins are not, so the regression runs here.
const probe = exper.Scale(0.05)

// TestAssertArgedCodec pins the two-operand assertion syntax: the kind,
// a token argument, then the threshold, round-tripping through Encode.
func TestAssertArgedCodec(t *testing.T) {
	src := strings.Join([]string{
		"scenario obs-asserts",
		"fleet shards=2 system=odafs",
		"assert max-phase-ms stall 5",
		"assert max-gauge trunk-util 0.95",
		"assert min-mbps 1",
	}, "\n")
	sp, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Assert{
		{Kind: AssertMaxPhaseMs, Arg: "stall", Value: 5},
		{Kind: AssertMaxGauge, Arg: "trunk-util", Value: 0.95},
		{Kind: AssertMinMBps, Value: 1},
	}
	if len(sp.Asserts) != len(want) {
		t.Fatalf("parsed %d asserts, want %d", len(sp.Asserts), len(want))
	}
	for i, a := range sp.Asserts {
		if a != want[i] {
			t.Errorf("assert %d = %+v, want %+v", i, a, want[i])
		}
	}
	enc := Encode(sp)
	for _, line := range []string{"assert max-phase-ms stall 5", "assert max-gauge trunk-util 0.95"} {
		if !strings.Contains(enc, line) {
			t.Errorf("encoded form missing %q:\n%s", line, enc)
		}
	}
	back, err := Parse(enc)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	for i, a := range back.Asserts {
		if a != want[i] {
			t.Errorf("round-tripped assert %d = %+v, want %+v", i, a, want[i])
		}
	}
}

// TestAssertArgedParseErrors pins the shape rejections for arged
// kinds. Parse errors are *ParseError messages (the codec flattens the
// sentinel phrasing into the line-pinned message), so the checks match
// the rendered text like the codec's own golden tests.
func TestAssertArgedParseErrors(t *testing.T) {
	head := "scenario x\nfleet shards=1 system=nfs\n"
	cases := []struct {
		name, line, want string
	}{
		{"missing both", "assert max-phase-ms", ErrArgValue.Error()},
		{"missing value", "assert max-phase-ms stall", ErrArgValue.Error()},
		{"extra token", "assert max-gauge cpu-util 1 2", ErrArgValue.Error()},
		{"bad threshold", "assert max-phase-ms stall fast", `bad threshold "fast"`},
	}
	for _, c := range cases {
		_, err := Parse(head + c.line)
		if err == nil {
			t.Errorf("%s: parsed", c.name)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error is %T, want *ParseError", c.name, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want %q in it", c.name, err, c.want)
		}
	}
}

// TestValidateObsAsserts pins the semantic pass over assertion
// arguments: phase and gauge tokens are checked statically, before
// anything runs.
func TestValidateObsAsserts(t *testing.T) {
	check := func(a Assert) error {
		sp := valid()
		sp.Asserts = []Assert{a}
		return sp.Validate()
	}
	if err := check(Assert{Kind: AssertMaxPhaseMs, Arg: "stall", Value: 5}); err != nil {
		t.Errorf("valid max-phase-ms rejected: %v", err)
	}
	if err := check(Assert{Kind: AssertMaxGauge, Arg: "cpu-util", Value: 1}); err != nil {
		t.Errorf("valid max-gauge rejected: %v", err)
	}
	if err := check(Assert{Kind: AssertMaxPhaseMs, Arg: "bogus", Value: 5}); err == nil ||
		!strings.Contains(err.Error(), "unknown phase") {
		t.Errorf("unknown phase error = %v", err)
	}
	if err := check(Assert{Kind: AssertMaxGauge, Arg: "bogus", Value: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown gauge class") {
		t.Errorf("unknown gauge class error = %v", err)
	}
	if err := check(Assert{Kind: AssertMinMBps, Arg: "stall", Value: 1}); err == nil ||
		!strings.Contains(err.Error(), "takes no argument") {
		t.Errorf("argument on an unarged kind error = %v", err)
	}
	if err := check(Assert{Kind: AssertMaxPhaseMs, Arg: "stall", Value: -1}); err == nil ||
		!strings.Contains(err.Error(), "negative threshold") {
		t.Errorf("negative threshold error = %v", err)
	}
}

// TestRunObsAsserts runs a spec whose assertions read the observability
// layer: the run must arm tracing by itself, evaluate both kinds, and
// mark the report observed.
func TestRunObsAsserts(t *testing.T) {
	sp := valid()
	sp.Asserts = []Assert{
		// Generous bounds that a healthy tiny run satisfies.
		{Kind: AssertMaxPhaseMs, Arg: "retry", Value: 10_000},
		{Kind: AssertMaxGauge, Arg: "cpu-util", Value: 1},
		// An impossible bound that must fail with a measured value.
		{Kind: AssertMaxGauge, Arg: "async-depth", Value: -0.0},
	}
	if !sp.NeedsObs() {
		t.Fatal("spec with obs asserts reports NeedsObs false")
	}
	rep, err := Run(sp, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Observed {
		t.Error("run with obs asserts is not marked observed")
	}
	if rep.Breakdown.N == 0 {
		t.Error("observed run has an empty breakdown")
	}
	if !rep.Results[0].Ok || !rep.Results[1].Ok {
		t.Errorf("generous obs bounds failed: %+v", rep.Results[:2])
	}
	if rep.Results[2].Ok {
		t.Error("zero async-depth bound passed on a loaded run")
	}
	if rep.Results[2].Got <= 0 {
		t.Errorf("async-depth measured %g, want > 0", rep.Results[2].Got)
	}
	out := rep.Format()
	for _, want := range []string{"assert max-gauge async-depth", "phase(us)", "dominant="} {
		if !strings.Contains(out, want) {
			t.Errorf("observed report missing %q:\n%s", want, out)
		}
	}
}

// TestRunUntracedByDefault pins the zero-cost default: a spec without
// obs assertions runs unobserved and its report carries no breakdown.
func TestRunUntracedByDefault(t *testing.T) {
	sp := valid()
	rep, err := Run(sp, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Observed || rep.Breakdown.N != 0 || rep.FlightOps != 0 {
		t.Errorf("untraced run leaked observability state: %+v", rep)
	}
	if strings.Contains(rep.Format(), "phase(us)") {
		t.Error("untraced report renders a phase table")
	}
}

// TestRunExportsDeterministic runs the same observed scenario twice and
// requires byte-identical trace and telemetry exports.
func TestRunExportsDeterministic(t *testing.T) {
	render := func() (string, string) {
		crash, _ := Lookup("crash-recovery")
		var tr, tel bytes.Buffer
		rep, err := RunObserved(crash, tiny, RunOpts{TraceOut: &tr, TelemetryOut: &tel})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Observed {
			t.Fatal("export run not observed")
		}
		if rep.FlightOps == 0 {
			t.Error("faulted observed run retained no flight spans")
		}
		return tr.String(), tel.String()
	}
	tr1, tel1 := render()
	tr2, tel2 := render()
	if tr1 != tr2 {
		t.Error("trace export differs across reruns")
	}
	if tel1 != tel2 {
		t.Error("telemetry export differs across reruns")
	}
	if !strings.HasPrefix(tr1, `{"displayTimeUnit":"ms","traceEvents":[`) {
		t.Errorf("trace export is not trace-event JSON:\n%.120s", tr1)
	}
	if !strings.HasPrefix(tel1, "time_us\t") {
		t.Errorf("telemetry export is not the TSV dump:\n%.120s", tel1)
	}
}

// writeMixBreakdown runs one write-mix cell at probe scale with per-op
// tracing armed and returns the span population's phase decomposition —
// the table showing which phase the cell's p99 went to.
func writeMixBreakdown(t *testing.T, system string, shards int, readFrac float64) obs.Breakdown {
	t.Helper()
	rep, err := RunObserved(WriteMixSpec(system, shards, readFrac), probe, RunOpts{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Breakdown
}

// TestWriteMixBreakdownRegimes is the write-mix phase-attribution
// regression: in the destage-limited regime (write-heavy, water marks
// throttling) the p99 tail is dominated by the stall phase, while the
// read-limited regime's tail is wire/server time — the simulated
// counterpart of the paper's cost attribution argument.
func TestWriteMixBreakdownRegimes(t *testing.T) {
	const shards = 4
	destage := writeMixBreakdown(t, "NFS", shards, 0.1)
	if got := destage.DominantTail(); got != "stall" {
		t.Errorf("destage-limited dominant tail = %q, want stall\n%s", got, destage.Format())
	}
	stall := destage.TailMicros[obs.PhaseStall]
	if stall < 0.5*destage.P99Micros {
		t.Errorf("destage-limited stall tail %.0fus < half of p99 %.0fus", stall, destage.P99Micros)
	}

	read := writeMixBreakdown(t, "DAFS", shards, 1.0)
	if got := read.DominantTail(); got != "wire" && got != "server" {
		t.Errorf("read-limited dominant tail = %q, want wire or server\n%s", got, read.Format())
	}
	if got := read.TailMicros[obs.PhaseStall]; got != 0 {
		t.Errorf("read-limited tail has %.0fus stall, want none", got)
	}
	if read.P99Micros >= destage.P99Micros {
		t.Errorf("read-limited p99 %.0fus >= destage-limited p99 %.0fus", read.P99Micros, destage.P99Micros)
	}
}

// TestWriteMixUnchangedByTracing pins the non-perturbation contract on
// a real experiment cell: the measured results of a traced run equal
// the untraced run's exactly (tracing adds no simulation events; only
// telemetry sampling would).
func TestWriteMixUnchangedByTracing(t *testing.T) {
	spec := WriteMixSpec("NFS", 2, 0.5)
	plain, err := Run(spec, tiny)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunObserved(WriteMixSpec("NFS", 2, 0.5), tiny, RunOpts{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.M, traced.M) {
		t.Errorf("tracing changed the measurements:\nplain:  %+v\ntraced: %+v", plain.M, traced.M)
	}
}

// TestObservedScenarioExercisesSampler covers the gauge set on a spec
// with write-behind and a fabric, where every gauge class can appear.
func TestObservedScenarioExercisesSampler(t *testing.T) {
	sp := valid()
	sp.Fleet = Fleet{Shards: 4, System: "odafs", Depth: 16}
	sp.Fabric = FabricSpec{Leaves: 2, Spines: 1}
	sp.WB = WriteBehind{Enabled: true, Auto: true}
	sp.Workload.ReadFrac = 0.3
	sp.Asserts = []Assert{
		{Kind: AssertMaxGauge, Arg: "trunk-util", Value: 1},
		{Kind: AssertMaxGauge, Arg: "dirty-blocks", Value: 1e9},
		{Kind: AssertMaxGauge, Arg: "wb-throttle", Value: 1},
	}
	rep, err := Run(sp, tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if !res.Ok {
			t.Errorf("gauge assert %s failed (got %g)", res.Assert, res.Got)
		}
	}
	// A write-heavy run must actually dirty the cache.
	if rep.Results[1].Got <= 0 {
		t.Error("dirty-blocks gauge never read nonzero")
	}
}
