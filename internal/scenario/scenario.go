// Package scenario is the declarative harness unifying the replay
// experiments' moving parts — fleet topology, write-behind
// configuration, workload shape, fault schedule, and metric assertions
// — under one spec format. A Spec parses from a small line-oriented
// text format (codec.go), validates statically with typed errors,
// compiles onto the exper replay machinery (run.go), and yields a
// deterministic pass/fail Report. The failure, write-mix and
// replication experiments are sweeps of canned specs run through this
// same path by RunAll (experiments.go, replication.go), and a seeded
// generator fuzzes the space of fleet shapes and correlated fault
// schedules (stress.go).
package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"danas/internal/exper"
	"danas/internal/fail"
	"danas/internal/obs"
	"danas/internal/sim"
	"danas/internal/stripe"
	"danas/internal/trace"
)

// Spec is one declarative scenario: what fleet to build, what workload
// to replay over it, what faults to inject while it runs, and what the
// resulting metrics must satisfy.
type Spec struct {
	// Name identifies the scenario in reports and job labels; a single
	// token (no whitespace).
	Name string
	// Describe is a one-line human description.
	Describe string
	Fleet    Fleet
	// Fabric selects the interconnect topology; the zero value keeps the
	// single-switch star every pre-fabric scenario runs on.
	Fabric FabricSpec
	Retry  Retry
	WB     WriteBehind
	// Workload is the synthetic trace to replay; the runner applies the
	// experiment -scale to it like every replay experiment
	// (exper.ScaleGen), so one spec exercises every scale.
	Workload trace.GenConfig
	Faults   []Fault
	Asserts  []Assert
}

// Fleet is the topology under test.
type Fleet struct {
	// Shards is the server fleet size; traced files stripe across it.
	Shards int
	// System is the protocol token: one of SystemTokens.
	System string
	// Depth is the async client's queue depth (0 = the trace
	// experiment's default).
	Depth int
	// Replicas gives every shard that many replica machines and mounts
	// the replicated clients over them; zero builds the pre-replication
	// fleet exactly.
	Replicas int
	// Ack is the write acknowledgement policy token ("sync", "quorum",
	// "async"); empty defaults to sync. Only meaningful with replicas.
	Ack string
}

// FabricSpec declares a leaf/spine interconnect for the fleet: servers
// rack onto leaves by the cluster's placement rule, clients fill the
// remaining leaves, and every cross-leaf flow rides the oversubscribed
// trunk bundles. The zero value is the single-switch star.
type FabricSpec struct {
	// Leaves is the leaf-switch count; a fabric needs at least 2 (one
	// leaf is the star, spelled by omitting the directive).
	Leaves int
	// Spines is the spine-switch count (0 = the cluster default of 1).
	Spines int
	// Oversub is the trunk oversubscription ratio N in N:1 (0 = 1,
	// a non-blocking fabric).
	Oversub int
	// Ports caps host ports per leaf (0 = uncapped).
	Ports int
}

// enabled reports whether the spec asks for a real multi-leaf fabric.
func (f FabricSpec) enabled() bool { return f.Leaves > 1 }

// parseSwitchRef decodes a switch reference ("leaf1", "spine0") into
// its tier and index — the same spelling fail.Event prints.
func parseSwitchRef(ref string) (fail.SwitchTier, int, error) {
	for _, p := range []struct {
		prefix string
		tier   fail.SwitchTier
	}{{"leaf", fail.TierLeaf}, {"spine", fail.TierSpine}} {
		if rest, ok := strings.CutPrefix(ref, p.prefix); ok {
			if idx, err := strconv.Atoi(rest); err == nil && idx >= 0 {
				return p.tier, idx, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("%w switch %q (use leafN or spineN)", ErrBadValue, ref)
}

// Retry arms client-side recovery: retransmission with exponential
// backoff from RTO, giving up after Budget attempts. A zero Budget
// leaves retries off (an op against a dead shard fails fast).
type Retry struct {
	RTO    sim.Duration
	Budget int
}

// WriteBehind arms the write-behind/commit subsystem on every shard.
type WriteBehind struct {
	Enabled bool
	// Auto derives the water marks from the replayed footprint (the
	// write-mix experiment's sizing, exper.AutoWBConfig); otherwise
	// High/Low/Batch are used as given.
	Auto             bool
	High, Low, Batch int
}

// systemNames maps spec protocol tokens to exper legend names.
var systemNames = map[string]string{
	"nfs":        "NFS",
	"nfs-pre":    "NFS pre-posting",
	"nfs-hybrid": "NFS hybrid",
	"dafs":       "DAFS",
	"odafs":      "ODAFS",
}

// SystemTokens lists the accepted fleet system tokens, sorted.
func SystemTokens() []string {
	toks := make([]string, 0, len(systemNames))
	for t := range systemNames {
		toks = append(toks, t)
	}
	sort.Strings(toks)
	return toks
}

// legend resolves the validated spec's system token to the exper
// legend name, the spelling sessions mount by and tables print.
func (s *Spec) legend() string {
	legend, ok := systemNames[s.Fleet.System]
	if !ok {
		panic("scenario: unvalidated system token " + s.Fleet.System)
	}
	return legend
}

// systemToken is the inverse of systemNames (legend name -> token).
func systemToken(legend string) string {
	for t, n := range systemNames {
		if n == legend {
			return t
		}
	}
	panic("scenario: not a legend name: " + legend)
}

// TimeMode says how a TimeSpec resolves against the trace duration.
type TimeMode int

const (
	// TimeUnset is the zero value: the field was not given.
	TimeUnset TimeMode = iota
	// TimePct resolves as a percentage of the trace's arrival span, so
	// the schedule scales with the workload (the experiments' style).
	TimePct
	// TimeDur is an absolute simulated duration.
	TimeDur
)

// TimeSpec is a fault instant or span: either a percentage of the
// trace duration ("25%") or an absolute duration ("10ms").
type TimeSpec struct {
	Mode TimeMode
	Pct  int64
	Dur  sim.Duration
}

// Pct builds a percent-of-trace TimeSpec.
func Pct(p int64) TimeSpec { return TimeSpec{Mode: TimePct, Pct: p} }

// Dur builds an absolute-duration TimeSpec.
func Dur(d sim.Duration) TimeSpec { return TimeSpec{Mode: TimeDur, Dur: d} }

// Resolve converts the spec to a duration against trace span d. The
// percent arithmetic is d*p/100 in int64, matching the experiments'
// window math exactly (25% of d is d/4 for every d).
func (t TimeSpec) Resolve(d sim.Duration) sim.Duration {
	switch t.Mode {
	case TimePct:
		return d * sim.Duration(t.Pct) / 100
	case TimeDur:
		return t.Dur
	default:
		return 0
	}
}

func (t TimeSpec) String() string {
	switch t.Mode {
	case TimePct:
		return fmt.Sprintf("%d%%", t.Pct)
	case TimeDur:
		return formatDur(t.Dur)
	default:
		return "unset"
	}
}

// Fault kinds.
const (
	FaultCrash          = "crash"
	FaultRestart        = "restart"
	FaultCrashRestart   = "crash-restart"
	FaultMultiCrash     = "multi-crash"
	FaultRollingRestart = "rolling-restart"
	FaultDegrade        = "degrade"
	FaultRestore        = "restore"
	// FaultSwitchOutage black-holes one switch of the fabric (switch=
	// leafN or spineN) for the down span — shared infrastructure, so
	// every flow through it drops at once. FaultTrunkDegrade clamps a
	// leaf's trunk bundle to 1/factor of its oversubscription-derived
	// rate for the span; both need a fabric directive.
	FaultSwitchOutage = "switch-outage"
	FaultTrunkDegrade = "degrade-trunk"
)

// faultKinds lists every fault kind with the fields it takes; swtch
// kinds target a switch (switch=) instead of a shard set.
var faultKinds = map[string]struct{ down, stagger, factor, multi, swtch bool }{
	FaultCrash:          {},
	FaultRestart:        {},
	FaultCrashRestart:   {down: true},
	FaultMultiCrash:     {down: true, multi: true},
	FaultRollingRestart: {down: true, stagger: true, multi: true},
	FaultDegrade:        {down: true, factor: true},
	FaultRestore:        {},
	FaultSwitchOutage:   {down: true, swtch: true},
	FaultTrunkDegrade:   {down: true, factor: true, swtch: true},
}

// FaultKinds lists the accepted fault kinds, sorted.
func FaultKinds() []string {
	ks := make([]string, 0, len(faultKinds))
	for k := range faultKinds {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Fault is one declarative fault: a kind plus the shard set and timing
// it applies to. Down doubles as the degradation span for "degrade".
type Fault struct {
	Kind string
	// Shards is the victim set: one entry for single-shard kinds, two
	// or more for multi-crash and rolling-restart.
	Shards  []int
	At      TimeSpec
	Down    TimeSpec
	Stagger TimeSpec
	// Factor divides the victim link's bandwidth (degrade) or trunk
	// bundle's rate (degrade-trunk).
	Factor int
	// Copy selects which copy of each victim shard's replica set the
	// fault hits: 0 (the default) is the primary, matching the
	// pre-replication meaning; nonzero requires a replicated fleet.
	Copy int
	// Switch is the victim of switch-scoped kinds ("leaf1", "spine0");
	// those kinds take it instead of Shards.
	Switch string
}

// resolve compiles the fault to events against trace span d; linkBW is
// the fleet's full link bandwidth (degrade rates derive from it) and
// trunkRate gives a leaf's full trunk-bundle rate (degrade-trunk rates
// derive from that).
func (f Fault) resolve(d sim.Duration, linkBW float64, trunkRate func(leaf int) float64) fail.Schedule {
	at := f.At.Resolve(d)
	down := f.Down.Resolve(d)
	var sched fail.Schedule
	switch f.Kind {
	case FaultCrash:
		sched = fail.Schedule{{At: at, Kind: fail.Crash, Shard: f.Shards[0]}}
	case FaultRestart:
		sched = fail.Schedule{{At: at, Kind: fail.Restart, Shard: f.Shards[0]}}
	case FaultCrashRestart:
		sched = fail.CrashRestart(f.Shards[0], at, down)
	case FaultMultiCrash:
		sched = fail.SimultaneousCrash(f.Shards, at, down)
	case FaultRollingRestart:
		sched = fail.RollingRestart(f.Shards, at, down, f.Stagger.Resolve(d))
	case FaultDegrade:
		sched = fail.Degrade(f.Shards[0], at, down, linkBW/float64(f.Factor))
	case FaultRestore:
		sched = fail.Schedule{{At: at, Kind: fail.RestoreLink, Shard: f.Shards[0]}}
	case FaultSwitchOutage:
		tier, idx := mustSwitchRef(f.Switch)
		sched = fail.SwitchOutage(tier, idx, at, down)
	case FaultTrunkDegrade:
		_, idx := mustSwitchRef(f.Switch)
		sched = fail.TrunkDegrade(idx, at, down, trunkRate(idx)/float64(f.Factor))
	default:
		panic("scenario: unknown fault kind " + f.Kind)
	}
	if f.Copy > 0 {
		for i := range sched {
			sched[i].Copy = f.Copy
		}
	}
	return sched
}

// mustSwitchRef is parseSwitchRef for validated faults.
func mustSwitchRef(ref string) (fail.SwitchTier, int) {
	tier, idx, err := parseSwitchRef(ref)
	if err != nil {
		panic("scenario: unvalidated switch ref " + ref)
	}
	return tier, idx
}

// Assert kinds.
const (
	AssertMinMBps       = "min-mbps"
	AssertMaxP99Ms      = "max-p99-ms"
	AssertMaxRecoveryMs = "max-recovery-ms"
	AssertZeroFailedOps = "zero-failed-ops"
	AssertMaxFailedOps  = "max-failed-ops"
	AssertMaxStalls     = "max-stalls"
	// AssertMaxPhaseMs bounds the largest single-op attribution to one
	// latency phase ("assert max-phase-ms stall 5"). It arms per-op
	// tracing for the run.
	AssertMaxPhaseMs = "max-phase-ms"
	// AssertMaxGauge bounds the peak sampled value of one telemetry
	// gauge class ("assert max-gauge trunk-util 0.95"). It arms the
	// fleet sampler for the run.
	AssertMaxGauge = "max-gauge"
)

// assertShape describes an assertion kind's operand syntax: whether it
// takes a numeric threshold and whether a token argument (a phase or
// gauge-class name) comes between the kind and the threshold.
type assertShape struct {
	valued bool
	arged  bool
}

// assertKinds maps each assertion kind to its operand shape.
var assertKinds = map[string]assertShape{
	AssertMinMBps:       {valued: true},
	AssertMaxP99Ms:      {valued: true},
	AssertMaxRecoveryMs: {valued: true},
	AssertZeroFailedOps: {},
	AssertMaxFailedOps:  {valued: true},
	AssertMaxStalls:     {valued: true},
	AssertMaxPhaseMs:    {valued: true, arged: true},
	AssertMaxGauge:      {valued: true, arged: true},
}

// AssertKinds lists the accepted assertion kinds, sorted.
func AssertKinds() []string {
	ks := make([]string, 0, len(assertKinds))
	for k := range assertKinds {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Assert is one metric threshold the run must satisfy.
type Assert struct {
	Kind string
	// Arg names what the threshold applies to for kinds that take one:
	// a latency phase for max-phase-ms, a gauge class for max-gauge.
	Arg   string
	Value float64
}

func (a Assert) String() string {
	switch sh := assertKinds[a.Kind]; {
	case sh.arged:
		return fmt.Sprintf("%s %s %g", a.Kind, a.Arg, a.Value)
	case sh.valued:
		return fmt.Sprintf("%s %g", a.Kind, a.Value)
	}
	return a.Kind
}

// NeedsObs reports whether any assertion requires the observability
// layer (per-op tracing or the telemetry sampler) to be armed.
func (s *Spec) NeedsObs() bool {
	for _, a := range s.Asserts {
		if a.Kind == AssertMaxPhaseMs || a.Kind == AssertMaxGauge {
			return true
		}
	}
	return false
}

// ValidateError is a semantic rejection of a parsed spec.
type ValidateError struct {
	Spec string
	Msg  string
	// Err is the underlying typed cause when the rejection came from
	// schedule validation (a *fail.EventError).
	Err error
}

func (e *ValidateError) Error() string {
	return fmt.Sprintf("scenario %q: %s", e.Spec, e.Msg)
}

func (e *ValidateError) Unwrap() error { return e.Err }

// vErr builds a ValidateError against this spec.
func (s *Spec) vErr(format string, args ...any) error {
	return &ValidateError{Spec: s.Name, Msg: fmt.Sprintf(format, args...)}
}

// timeMode returns the single time mode the spec's fault times use, or
// an error if modes are mixed — mixing percentages with absolute
// durations would make event ordering depend on the trace duration,
// so a spec that validates at one scale could mis-order at another.
func (s *Spec) timeMode() (TimeMode, error) {
	mode := TimeUnset
	for _, f := range s.Faults {
		for _, t := range []TimeSpec{f.At, f.Down, f.Stagger} {
			if t.Mode == TimeUnset {
				continue
			}
			if mode == TimeUnset {
				mode = t.Mode
			} else if mode != t.Mode {
				return TimeUnset, s.vErr("fault times mix percentages and durations; use one style throughout")
			}
		}
	}
	return mode, nil
}

// Validate checks the spec semantically: topology and workload sanity,
// fault fields per kind, shard indices in range, assertion kinds known
// — and compiles the fault schedule to reject impossible sequences
// (restart of a live shard, link event on a crashed shard) with the
// fail package's typed errors before anything is built.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return s.vErr("missing name")
	}
	if strings.ContainsAny(s.Name, " \t") {
		return s.vErr("name contains whitespace")
	}
	if s.Fleet.Shards < 1 {
		return s.vErr("fleet: shards must be at least 1, got %d", s.Fleet.Shards)
	}
	if _, ok := systemNames[s.Fleet.System]; !ok {
		return s.vErr("fleet: unknown system %q (valid: %s)",
			s.Fleet.System, strings.Join(SystemTokens(), " "))
	}
	if s.Fleet.Depth < 0 {
		return s.vErr("fleet: negative depth %d", s.Fleet.Depth)
	}
	if s.Fleet.Replicas < 0 {
		return s.vErr("fleet: negative replicas %d", s.Fleet.Replicas)
	}
	if s.Fleet.Ack != "" {
		if s.Fleet.Replicas < 1 {
			return s.vErr("fleet: ack= needs replicas >= 1")
		}
		if _, err := stripe.ParseAck(s.Fleet.Ack); err != nil {
			return s.vErr("fleet: unknown ack %q (valid: sync quorum async)", s.Fleet.Ack)
		}
	}
	if s.Fabric != (FabricSpec{}) {
		if s.Fabric.Leaves < 2 {
			return s.vErr("fabric: leaves must be at least 2, got %d (one leaf is the star: omit the directive)", s.Fabric.Leaves)
		}
		if s.Fabric.Spines < 0 || s.Fabric.Oversub < 0 || s.Fabric.Ports < 0 {
			return s.vErr("fabric: negative field (leaves=%d spines=%d oversub=%d ports=%d)",
				s.Fabric.Leaves, s.Fabric.Spines, s.Fabric.Oversub, s.Fabric.Ports)
		}
		if s.Fabric.Ports > 0 {
			// Rack placement folds racks onto leaves round-robin, so the
			// fullest leaf holds shards * ceil(racks/leaves) servers; a
			// port cap below that would panic at construction.
			racks := 1
			if s.Fleet.Replicas > 0 {
				racks = s.Fleet.Replicas + 1
			}
			perLeaf := s.Fleet.Shards * ((racks + s.Fabric.Leaves - 1) / s.Fabric.Leaves)
			if s.Fabric.Ports < perLeaf {
				return s.vErr("fabric: ports=%d below the %d servers rack placement puts on one leaf",
					s.Fabric.Ports, perLeaf)
			}
		}
	}
	if s.Retry.Budget < 0 {
		return s.vErr("retry: negative budget %d", s.Retry.Budget)
	}
	if s.Retry.Budget > 0 && s.Retry.RTO <= 0 {
		return s.vErr("retry: budget without a positive rto")
	}
	if s.WB.Enabled && !s.WB.Auto {
		if s.WB.High < 1 || s.WB.Low < 1 || s.WB.Low > s.WB.High || s.WB.Batch < 1 {
			return s.vErr("writebehind: need 1 <= low <= high and batch >= 1, got high=%d low=%d batch=%d",
				s.WB.High, s.WB.Low, s.WB.Batch)
		}
	}
	if s.Workload.Ops < 1 {
		return s.vErr("workload: ops must be positive, got %d", s.Workload.Ops)
	}
	if s.Workload.Files < 1 {
		return s.vErr("workload: files must be positive, got %d", s.Workload.Files)
	}
	if s.Workload.FileSize < 1 || s.Workload.IOSize < 1 {
		return s.vErr("workload: filesize and iosize must be positive")
	}
	if s.Workload.IOSize > s.Workload.FileSize {
		return s.vErr("workload: iosize %d exceeds filesize %d", s.Workload.IOSize, s.Workload.FileSize)
	}
	if s.Workload.ReadFrac < 0 || s.Workload.ReadFrac > 1 {
		return s.vErr("workload: readfrac %g outside [0, 1]", s.Workload.ReadFrac)
	}
	if s.Workload.FileZipf < 0 || s.Workload.OffZipf < 0 {
		return s.vErr("workload: negative zipf exponent")
	}
	if s.Workload.Rate < 0 {
		return s.vErr("workload: negative rate %g", s.Workload.Rate)
	}
	if s.Workload.CommitEvery < 0 {
		return s.vErr("workload: negative commitevery %d", s.Workload.CommitEvery)
	}
	for i, f := range s.Faults {
		shape, ok := faultKinds[f.Kind]
		if !ok {
			return s.vErr("fault %d: unknown kind %q (valid: %s)",
				i, f.Kind, strings.Join(FaultKinds(), " "))
		}
		if f.At.Mode == TimeUnset {
			return s.vErr("fault %d (%s): missing at=", i, f.Kind)
		}
		if shape.down && f.Down.Mode == TimeUnset {
			return s.vErr("fault %d (%s): missing %s=", i, f.Kind, downKey(f.Kind))
		}
		if !shape.down && f.Down.Mode != TimeUnset {
			return s.vErr("fault %d (%s): %s takes no duration", i, f.Kind, f.Kind)
		}
		if shape.stagger && f.Stagger.Mode == TimeUnset {
			return s.vErr("fault %d (%s): missing stagger=", i, f.Kind)
		}
		if shape.factor && f.Factor < 2 {
			return s.vErr("fault %d (%s): factor must be at least 2, got %d", i, f.Kind, f.Factor)
		}
		if !shape.factor && f.Factor != 0 {
			return s.vErr("fault %d (%s): %s takes no factor", i, f.Kind, f.Kind)
		}
		if f.Copy < 0 || f.Copy > s.Fleet.Replicas {
			return s.vErr("fault %d (%s): copy %d outside replica set of %d copies",
				i, f.Kind, f.Copy, s.Fleet.Replicas+1)
		}
		if shape.swtch {
			if !s.Fabric.enabled() {
				return s.vErr("fault %d (%s): switch faults need a fabric directive", i, f.Kind)
			}
			if f.Switch == "" {
				return s.vErr("fault %d (%s): missing switch=", i, f.Kind)
			}
			tier, _, err := parseSwitchRef(f.Switch)
			if err != nil {
				return s.vErr("fault %d (%s): %v", i, f.Kind, err)
			}
			if f.Kind == FaultTrunkDegrade && tier != fail.TierLeaf {
				return s.vErr("fault %d (%s): trunk bundles hang off leaves, got %q", i, f.Kind, f.Switch)
			}
			if len(f.Shards) != 0 {
				return s.vErr("fault %d (%s): takes switch=, not shard=", i, f.Kind)
			}
			if f.Copy != 0 {
				return s.vErr("fault %d (%s): takes no copy=", i, f.Kind)
			}
		} else {
			if f.Switch != "" {
				return s.vErr("fault %d (%s): %s takes no switch=", i, f.Kind, f.Kind)
			}
			if shape.multi {
				if len(f.Shards) < 2 {
					return s.vErr("fault %d (%s): need at least 2 shards", i, f.Kind)
				}
			} else if len(f.Shards) != 1 {
				return s.vErr("fault %d (%s): need exactly one shard", i, f.Kind)
			}
			seen := make(map[int]bool)
			for _, sh := range f.Shards {
				if sh < 0 || sh >= s.Fleet.Shards {
					return s.vErr("fault %d (%s): shard %d outside fleet of %d", i, f.Kind, sh, s.Fleet.Shards)
				}
				if seen[sh] {
					return s.vErr("fault %d (%s): duplicate shard %d", i, f.Kind, sh)
				}
				seen[sh] = true
			}
		}
		for _, t := range []TimeSpec{f.At, f.Down, f.Stagger} {
			if t.Mode == TimePct && (t.Pct < 0 || t.Pct > 100) {
				return s.vErr("fault %d (%s): percentage %d%% outside [0, 100]", i, f.Kind, t.Pct)
			}
			if t.Mode == TimeDur && t.Dur < 0 {
				return s.vErr("fault %d (%s): negative duration", i, f.Kind)
			}
		}
	}
	mode, err := s.timeMode()
	if err != nil {
		return err
	}
	if len(s.Faults) > 0 {
		// Compile the schedule against a nominal span and reject
		// impossible sequences now. With a single time mode the event
		// ordering is span-invariant (percent offsets order like their
		// percentages), so a spec that validates here validates at run
		// time; the runner re-validates against the real span anyway.
		d := 100 * 100 * sim.Millisecond // every integer percent distinct
		if mode == TimeDur {
			d = 0 // absolute times resolve as themselves
		}
		if err := s.schedule(d, 1e9, nominalTrunkRate).ValidateTopo(s.failTopo()); err != nil {
			return &ValidateError{Spec: s.Name, Msg: fmt.Sprintf("fault schedule: %v", err), Err: err}
		}
	}
	for i, a := range s.Asserts {
		sh, ok := assertKinds[a.Kind]
		if !ok {
			return s.vErr("assert %d: unknown kind %q (valid: %s)",
				i, a.Kind, strings.Join(AssertKinds(), " "))
		}
		if sh.valued && a.Value < 0 {
			return s.vErr("assert %d (%s): negative threshold %g", i, a.Kind, a.Value)
		}
		if !sh.valued && a.Value != 0 {
			return s.vErr("assert %d (%s): takes no value", i, a.Kind)
		}
		if !sh.arged && a.Arg != "" {
			return s.vErr("assert %d (%s): takes no argument", i, a.Kind)
		}
		switch a.Kind {
		case AssertMaxPhaseMs:
			if _, err := obs.ParsePhase(a.Arg); err != nil {
				return s.vErr("assert %d (%s): %v", i, a.Kind, err)
			}
		case AssertMaxGauge:
			if err := obs.ValidGaugeClass(a.Arg); err != nil {
				return s.vErr("assert %d (%s): %v", i, a.Kind, err)
			}
		}
	}
	return nil
}

// downKey is the spelling of the duration key per fault kind ("for"
// reads better for the degradations).
func downKey(kind string) string {
	if kind == FaultDegrade || kind == FaultTrunkDegrade {
		return "for"
	}
	return "down"
}

// nominalTrunkRate stands in for the built fabric's trunk rate during
// static validation, where only positivity matters; the runner compiles
// the schedule again with the real rates.
func nominalTrunkRate(int) float64 { return 1e9 }

// failTopo is the fleet shape schedules validate against — the static
// mirror of the built cluster's FailTopo.
func (s *Spec) failTopo() fail.Topo {
	topo := fail.Topo{Shards: s.Fleet.Shards, Leaves: 1}
	if s.Fabric.enabled() {
		topo.Leaves = s.Fabric.Leaves
		topo.Spines = s.Fabric.Spines
		if topo.Spines < 1 {
			topo.Spines = 1
		}
	}
	return topo
}

// schedule compiles every fault to one merged, time-ordered schedule.
func (s *Spec) schedule(d sim.Duration, linkBW float64, trunkRate func(leaf int) float64) fail.Schedule {
	var parts []fail.Schedule
	for _, f := range s.Faults {
		parts = append(parts, f.resolve(d, linkBW, trunkRate))
	}
	return fail.Merge(parts...)
}

// replayConfig compiles the spec's fleet, retry, and write-behind
// sections onto the exper session configuration.
func (s *Spec) replayConfig() exper.ReplayConfig {
	cfg := exper.ReplayConfig{
		System:      s.legend(),
		Shards:      s.Fleet.Shards,
		Depth:       s.Fleet.Depth,
		RetryRTO:    s.Retry.RTO,
		RetryBudget: s.Retry.Budget,
		WriteBehind: s.WB.Enabled,
		WBAutoMarks: s.WB.Auto,
		Replicas:    s.Fleet.Replicas,
	}
	if s.Fabric.enabled() {
		cfg.Fabric = exper.FabricConfig{
			Leaves:    s.Fabric.Leaves,
			Spines:    s.Fabric.Spines,
			Oversub:   s.Fabric.Oversub,
			LeafPorts: s.Fabric.Ports,
		}
	}
	if s.Fleet.Ack != "" {
		ack, err := stripe.ParseAck(s.Fleet.Ack)
		if err != nil {
			panic("scenario: unvalidated ack token " + s.Fleet.Ack)
		}
		cfg.Ack = ack
	}
	if s.WB.Enabled && !s.WB.Auto {
		cfg.WBConfig.HighWater = s.WB.High
		cfg.WBConfig.LowWater = s.WB.Low
		cfg.WBConfig.MaxBatch = s.WB.Batch
	}
	return cfg
}
