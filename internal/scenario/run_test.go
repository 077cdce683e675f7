package scenario

import (
	"strings"
	"testing"

	"danas/internal/exper"
	"danas/internal/metrics"
)

// tiny keeps the scenario runs fast; full scale is exercised by
// danas-bench and the CI smoke job.
const tiny = exper.Scale(0.04)

// TestCannedPassFail is the harness acceptance: the crash-recovery
// scenario must pass every assertion, and tight-sla must fail — on its
// SLA bound specifically, with its throughput floor still holding, so
// a FAIL verdict demonstrably comes from the assertion engine and not
// from a broken run.
func TestCannedPassFail(t *testing.T) {
	crash, _ := Lookup("crash-recovery")
	sla, _ := Lookup("tight-sla")
	reps, err := RunAll([]*Spec{crash, sla}, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !reps[0].Pass {
		t.Errorf("crash-recovery failed:\n%s", reps[0].Format())
	}
	for _, res := range reps[0].Results {
		if !res.Ok {
			t.Errorf("crash-recovery assert %s failed (got %g)", res.Assert, res.Got)
		}
	}
	if reps[1].Pass {
		t.Errorf("tight-sla passed:\n%s", reps[1].Format())
	}
	for _, res := range reps[1].Results {
		switch res.Assert.Kind {
		case AssertMaxP99Ms:
			if res.Ok {
				t.Error("tight-sla's p99 bound held — the scenario no longer proves rejection")
			}
		default:
			if !res.Ok {
				t.Errorf("tight-sla assert %s failed; only the SLA bound should", res.Assert)
			}
		}
	}
	if AllPass(reps) {
		t.Error("AllPass over a failing report")
	}
	if out := FormatAll(reps); !strings.Contains(out, "scenarios: 1/2 passed") {
		t.Errorf("summary line missing from:\n%s", out)
	}
}

// TestRunRejectsInvalidSpec checks Run refuses to build anything from
// a spec that fails validation.
func TestRunRejectsInvalidSpec(t *testing.T) {
	sp := valid()
	sp.Fleet.System = "bogus"
	if _, err := Run(sp, tiny); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
	if _, err := RunAll([]*Spec{sp}, tiny); err == nil {
		t.Fatal("RunAll accepted an invalid spec")
	}
}

// TestFaultWindowMeasured checks a faulted scenario's report carries
// the before/during/after decomposition and a fault-free scenario's
// does not.
func TestFaultWindowMeasured(t *testing.T) {
	crash, _ := Lookup("crash-recovery")
	rep, err := Run(crash, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.M.HasFault {
		t.Fatal("faulted scenario measured no fault window")
	}
	if rep.M.Fault.BaseMBps <= 0 {
		t.Error("no baseline throughput before the fault")
	}
	sla, _ := Lookup("tight-sla")
	rep, err = Run(sla, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if rep.M.HasFault {
		t.Error("fault-free scenario measured a fault window")
	}
}

// TestMeasureCountsMatchPerOpEval pins the equivalence Measure's outcome
// counts rest on: on a cell that fails operations, the replay totals
// (Ops − Errors, Errors) equal the per-op evaluator's OK/Failed split
// over the same replay's per-operation records.
func TestMeasureCountsMatchPerOpEval(t *testing.T) {
	spec := FailureSpec("crash", "NFS", 1)
	sess := exper.NewReplaySession(exper.ScaleGen(tiny, spec.Workload), spec.replayConfig())
	defer sess.Close()
	tr := sess.Trace()
	sched := spec.schedule(tr.Duration(), sess.Cluster.P.LinkBandwidth, sess.Cluster.Fab.TrunkRate)
	res, _ := sess.Replay("measure-eval", sched)
	m := sess.Measure(res, sched)

	ops := make([]metrics.OpOutcome, len(tr))
	for i, rec := range tr {
		ops[i] = metrics.OpOutcome{Arrival: rec.At, Done: res.OpDone[i], Bytes: res.OpBytes[i], Failed: res.OpErr[i] != nil}
	}
	eval := metrics.NewEval(res.Start, res.Elapsed, ops)
	if m.OpsOK != eval.OK() || m.OpsFailed != eval.Failed() {
		t.Errorf("Measure ok/failed = %d/%d, per-op eval = %d/%d", m.OpsOK, m.OpsFailed, eval.OK(), eval.Failed())
	}
	if m.OpsFailed == 0 {
		t.Error("the crash cell failed no ops; the equivalence is untested")
	}
	if !m.HasFault {
		t.Error("a scheduled replay measured no fault window")
	}
}
