// Package fail provides deterministic failure injection for the
// simulated fleet: a Schedule is plain data — a time-ordered list of
// events (shard crash, shard restart, link degradation, link restore) —
// armed against a Target (the experiment cluster) on a simulation
// scheduler. Schedules are built by helpers or generated from a seed,
// never from wall-clock or global randomness, so a fixed schedule yields
// byte-identical simulation output on every run and at any experiment
// worker-pool width.
package fail

import (
	"errors"
	"fmt"
	"sort"

	"danas/internal/sim"
)

// Kind is the event type.
type Kind int

const (
	// Crash kills a shard: in-flight requests drop, the server cache is
	// lost, and every live ORDMA export is invalidated so outstanding
	// client references fault.
	Crash Kind = iota
	// Restart brings a crashed shard back with a cold cache.
	Restart
	// DegradeLink clamps a shard's link to Event.Rate bytes/second.
	DegradeLink
	// RestoreLink returns a degraded link to full bandwidth.
	RestoreLink
	// SwitchDown black-holes a switch (Event.Tier + Event.Switch): every
	// flow through it drops until SwitchUp. Unlike a shard crash, this is
	// shared infrastructure — all hosts behind the switch go dark at once.
	SwitchDown
	// SwitchUp restores a downed switch.
	SwitchUp
	// DegradeTrunk clamps a leaf's trunk bundle toward the spines to
	// Event.Rate bytes/second per direction (leaf tier only — trunks
	// hang off leaves).
	DegradeTrunk
	// RestoreTrunk returns a degraded trunk bundle to its
	// oversubscription-derived rate.
	RestoreTrunk
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case DegradeLink:
		return "degrade-link"
	case RestoreLink:
		return "restore-link"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	case DegradeTrunk:
		return "degrade-trunk"
	case RestoreTrunk:
		return "restore-trunk"
	default:
		return fmt.Sprintf("fail-kind(%d)", int(k))
	}
}

// switchKind reports whether k targets a switch rather than a shard.
func (k Kind) switchKind() bool {
	return k == SwitchDown || k == SwitchUp || k == DegradeTrunk || k == RestoreTrunk
}

// SwitchTier selects which fabric tier a switch event targets.
type SwitchTier int

const (
	TierLeaf SwitchTier = iota
	TierSpine
)

func (t SwitchTier) String() string {
	switch t {
	case TierLeaf:
		return "leaf"
	case TierSpine:
		return "spine"
	default:
		return fmt.Sprintf("fail-tier(%d)", int(t))
	}
}

// Event is one injected fault, At after the schedule is armed.
type Event struct {
	At    sim.Duration
	Kind  Kind
	Shard int
	// Copy selects which copy of the shard's replica set the event hits:
	// 0 is the primary.
	Copy int
	// Rate is the degraded bandwidth in bytes/second (DegradeLink and
	// DegradeTrunk only).
	Rate float64
	// Tier and Switch select the victim of switch-scoped kinds
	// (SwitchDown/SwitchUp/DegradeTrunk/RestoreTrunk); Shard and Copy
	// are ignored for those.
	Tier   SwitchTier
	Switch int
}

func (e Event) String() string {
	who := fmt.Sprintf("shard%d", e.Shard)
	if e.Kind.switchKind() {
		who = fmt.Sprintf("%v%d", e.Tier, e.Switch)
	} else if e.Copy > 0 {
		who = fmt.Sprintf("shard%d.copy%d", e.Shard, e.Copy)
	}
	if e.Kind == DegradeLink || e.Kind == DegradeTrunk {
		return fmt.Sprintf("%v %s %s to %.0f B/s", e.At, who, e.Kind, e.Rate)
	}
	return fmt.Sprintf("%v %s %s", e.At, who, e.Kind)
}

// Target is what a schedule acts on: one copy of a shard's replica set
// (copy 0 is the primary), or a switch of the fabric. exper.Cluster
// implements it; tests substitute recorders.
type Target interface {
	Crash(shard, copy int)
	Restart(shard, copy int)
	DegradeLink(shard, copy int, bytesPerSec float64)
	RestoreLink(shard, copy int)
	LeafDown(i int)
	LeafUp(i int)
	SpineDown(i int)
	SpineUp(i int)
	DegradeTrunk(leaf int, bytesPerSec float64)
	RestoreTrunk(leaf int)
}

// Schedule is a list of events ordered by At.
type Schedule []Event

// Sorted returns the schedule ordered by At, stable so same-instant
// events keep their construction order.
func (s Schedule) Sorted() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Merge combines schedules into one time-ordered schedule.
func Merge(scheds ...Schedule) Schedule {
	var out Schedule
	for _, s := range scheds {
		out = append(out, s...)
	}
	return out.Sorted()
}

// Typed validation failure reasons. Validate wraps each in an
// *EventError carrying the offending event, so callers can both test
// the class with errors.Is and report the exact event.
var (
	ErrNegativeTime = errors.New("negative time")
	ErrOutOfOrder   = errors.New("out of order (schedule must be sorted by At)")
	ErrShardRange   = errors.New("shard out of range")
	ErrAlreadyDown  = errors.New("crash of an already-down shard")
	ErrNotDown      = errors.New("restart of a live shard")
	ErrBadRate      = errors.New("non-positive degrade rate")
	ErrNotDegraded  = errors.New("restore of an undegraded link")
	ErrShardDark    = errors.New("link event on a crashed shard")
	ErrBadKind      = errors.New("unknown event kind")
	ErrCopyRange    = errors.New("copy out of range")

	ErrSwitchRange       = errors.New("switch out of range")
	ErrSwitchAlreadyDown = errors.New("switch-down of an already-down switch")
	ErrSwitchNotDown     = errors.New("switch-up of a live switch")
	ErrTrunkTier         = errors.New("trunk event targets a spine (trunk bundles hang off leaves)")
	ErrNoTrunk           = errors.New("trunk event needs a multi-leaf fabric")
	ErrSwitchDark        = errors.New("trunk event on a down switch")
	ErrTrunkNotDegraded  = errors.New("restore of an undegraded trunk")
)

// EventError is a validation failure pinned to one event of a schedule.
type EventError struct {
	Index  int
	Event  Event
	Reason error
}

func (e *EventError) Error() string {
	return fmt.Sprintf("fail: event %d (%v): %v", e.Index, e.Event, e.Reason)
}

func (e *EventError) Unwrap() error { return e.Reason }

// Topo describes the fleet a schedule is validated against: the shard
// count plus the fabric's switch counts. Leaves 1 / Spines 0 is the
// single-switch star every pre-fabric experiment runs on.
type Topo struct {
	Shards int
	Leaves int
	Spines int
}

// Validate checks the schedule against a single-switch fleet of the
// given shard count — ValidateTopo over the degenerate star.
func (s Schedule) Validate(shards int) error {
	return s.ValidateTopo(Topo{Shards: shards, Leaves: 1})
}

// ValidateTopo checks the schedule against a fleet: events must be
// time-ordered with non-negative offsets, shards and switches in range,
// degraded rates positive, and per-machine state transitions legal (no
// crash of a down shard, no restart of an up shard, no restore of an
// undegraded link or trunk, no link event against a crashed shard, no
// trunk event against a down leaf or a fabric without trunks). Failures
// are *EventError values wrapping the typed reasons above.
func (s Schedule) ValidateTopo(topo Topo) error {
	// State is tracked per (shard, copy): copy events and primary events
	// on the same shard are independent machines. Switches get their own
	// per-(tier, index) machines.
	type machine struct{ shard, copy int }
	down := make(map[machine]bool)
	degraded := make(map[machine]bool)
	swDown := make(map[swKey]bool)
	trunkDeg := make(map[int]bool)
	last := sim.Duration(0)
	fail := func(i int, reason error) error {
		return &EventError{Index: i, Event: s[i], Reason: reason}
	}
	leaves := topo.Leaves
	if leaves < 1 {
		leaves = 1
	}
	for i, e := range s {
		if e.At < 0 {
			return fail(i, ErrNegativeTime)
		}
		if e.At < last {
			return fail(i, ErrOutOfOrder)
		}
		last = e.At
		if e.Kind.switchKind() {
			if err := validateSwitch(e, leaves, topo.Spines, swDown, trunkDeg); err != nil {
				return fail(i, err)
			}
			continue
		}
		if e.Shard < 0 || e.Shard >= topo.Shards {
			return fail(i, ErrShardRange)
		}
		if e.Copy < 0 {
			return fail(i, ErrCopyRange)
		}
		m := machine{e.Shard, e.Copy}
		switch e.Kind {
		case Crash:
			if down[m] {
				return fail(i, ErrAlreadyDown)
			}
			down[m] = true
		case Restart:
			if !down[m] {
				return fail(i, ErrNotDown)
			}
			down[m] = false
		case DegradeLink:
			if e.Rate <= 0 {
				return fail(i, ErrBadRate)
			}
			if down[m] {
				return fail(i, ErrShardDark)
			}
			degraded[m] = true
		case RestoreLink:
			if down[m] {
				return fail(i, ErrShardDark)
			}
			if !degraded[m] {
				return fail(i, ErrNotDegraded)
			}
			degraded[m] = false
		default:
			return fail(i, ErrBadKind)
		}
	}
	return nil
}

// swKey identifies a switch machine during validation.
type swKey struct {
	tier SwitchTier
	idx  int
}

// validateSwitch checks one switch-scoped event against the fabric's
// switch counts and the running switch/trunk state machines.
func validateSwitch(e Event, leaves, spines int, swDown map[swKey]bool, trunkDeg map[int]bool) error {
	limit := leaves
	if e.Tier == TierSpine {
		limit = spines
	}
	if e.Switch < 0 || e.Switch >= limit {
		return ErrSwitchRange
	}
	k := swKey{e.Tier, e.Switch}
	switch e.Kind {
	case SwitchDown:
		if swDown[k] {
			return ErrSwitchAlreadyDown
		}
		swDown[k] = true
	case SwitchUp:
		if !swDown[k] {
			return ErrSwitchNotDown
		}
		swDown[k] = false
	case DegradeTrunk, RestoreTrunk:
		if e.Tier != TierLeaf {
			return ErrTrunkTier
		}
		if leaves <= 1 {
			return ErrNoTrunk
		}
		if swDown[k] {
			return ErrSwitchDark
		}
		if e.Kind == DegradeTrunk {
			if e.Rate <= 0 {
				return ErrBadRate
			}
			trunkDeg[e.Switch] = true
		} else {
			if !trunkDeg[e.Switch] {
				return ErrTrunkNotDegraded
			}
			trunkDeg[e.Switch] = false
		}
	}
	return nil
}

// Arm validates the schedule against a single-switch fleet and posts
// every event — ArmTopo over the degenerate star.
func (s Schedule) Arm(sch *sim.Scheduler, shards int, tgt Target) error {
	return s.ArmTopo(sch, Topo{Shards: shards, Leaves: 1}, tgt)
}

// ArmTopo validates the schedule against the fleet topology and posts
// every event on sch relative to the current instant. Events with equal
// At fire in schedule order (the scheduler is FIFO at equal
// timestamps).
func (s Schedule) ArmTopo(sch *sim.Scheduler, topo Topo, tgt Target) error {
	if err := s.ValidateTopo(topo); err != nil {
		return err
	}
	for _, e := range s {
		e := e
		sch.After(e.At, func() {
			switch e.Kind {
			case Crash:
				tgt.Crash(e.Shard, e.Copy)
			case Restart:
				tgt.Restart(e.Shard, e.Copy)
			case DegradeLink:
				tgt.DegradeLink(e.Shard, e.Copy, e.Rate)
			case RestoreLink:
				tgt.RestoreLink(e.Shard, e.Copy)
			case SwitchDown:
				if e.Tier == TierSpine {
					tgt.SpineDown(e.Switch)
				} else {
					tgt.LeafDown(e.Switch)
				}
			case SwitchUp:
				if e.Tier == TierSpine {
					tgt.SpineUp(e.Switch)
				} else {
					tgt.LeafUp(e.Switch)
				}
			case DegradeTrunk:
				tgt.DegradeTrunk(e.Switch, e.Rate)
			case RestoreTrunk:
				tgt.RestoreTrunk(e.Switch)
			}
		})
	}
	return nil
}

// CrashRestart builds a schedule crashing shard at the given instant and
// restarting it down later.
func CrashRestart(shard int, at, down sim.Duration) Schedule {
	return Schedule{
		{At: at, Kind: Crash, Shard: shard},
		{At: at + down, Kind: Restart, Shard: shard},
	}
}

// CrashRestartCopy builds a schedule crashing one copy of a shard's
// replica set and restarting it down later (copy 0 is the primary —
// identical to CrashRestart).
func CrashRestartCopy(shard, copy int, at, down sim.Duration) Schedule {
	return Schedule{
		{At: at, Kind: Crash, Shard: shard, Copy: copy},
		{At: at + down, Kind: Restart, Shard: shard, Copy: copy},
	}
}

// Degrade builds a schedule clamping shard's link to bytesPerSec over
// [at, at+dur).
func Degrade(shard int, at, dur sim.Duration, bytesPerSec float64) Schedule {
	return Schedule{
		{At: at, Kind: DegradeLink, Shard: shard, Rate: bytesPerSec},
		{At: at + dur, Kind: RestoreLink, Shard: shard},
	}
}

// SwitchOutage builds a schedule taking the given switch down at the
// given instant and back up after the downtime.
func SwitchOutage(tier SwitchTier, idx int, at, down sim.Duration) Schedule {
	return Schedule{
		{At: at, Kind: SwitchDown, Tier: tier, Switch: idx},
		{At: at + down, Kind: SwitchUp, Tier: tier, Switch: idx},
	}
}

// TrunkDegrade builds a schedule clamping a leaf's trunk bundle to
// bytesPerSec per direction over [at, at+dur).
func TrunkDegrade(leaf int, at, dur sim.Duration, bytesPerSec float64) Schedule {
	return Schedule{
		{At: at, Kind: DegradeTrunk, Tier: TierLeaf, Switch: leaf, Rate: bytesPerSec},
		{At: at + dur, Kind: RestoreTrunk, Tier: TierLeaf, Switch: leaf},
	}
}

// SimultaneousCrash builds the correlated-loss schedule: every listed
// shard crashes at the same instant (a rack or power-domain failure) and
// all restart together down later. Shards must be distinct.
func SimultaneousCrash(shards []int, at, down sim.Duration) Schedule {
	out := make(Schedule, 0, 2*len(shards))
	for _, sh := range shards {
		out = append(out, Event{At: at, Kind: Crash, Shard: sh})
	}
	for _, sh := range shards {
		out = append(out, Event{At: at + down, Kind: Restart, Shard: sh})
	}
	return out.Sorted()
}

// RollingRestart rolls an outage across the listed shards: shards[i]
// crashes at at+i*stagger and restarts down later. A stagger shorter
// than the downtime overlaps consecutive outages (stagger == 0 is a
// simultaneous crash); a stagger of at least the downtime keeps at most
// one shard dark at a time — the planned-maintenance pattern.
func RollingRestart(shards []int, at, down, stagger sim.Duration) Schedule {
	out := make(Schedule, 0, 2*len(shards))
	for i, sh := range shards {
		out = append(out, CrashRestart(sh, at+sim.Duration(i)*stagger, down)...)
	}
	return out.Sorted()
}

// Pattern selects the correlated shape of generated faults.
type Pattern int

const (
	// Independent draws each crash against one uniformly chosen shard —
	// the uncorrelated baseline.
	Independent Pattern = iota
	// Simultaneous crashes K distinct shards at the same instant per
	// draw (rack or power-domain loss).
	Simultaneous
	// Rolling rolls each draw's outage across K distinct shards with a
	// configurable overlap between consecutive downtimes.
	Rolling
)

func (p Pattern) String() string {
	switch p {
	case Independent:
		return "independent"
	case Simultaneous:
		return "simultaneous"
	case Rolling:
		return "rolling"
	default:
		return fmt.Sprintf("fail-pattern(%d)", int(p))
	}
}

// GenConfig seeds the random schedule generator.
type GenConfig struct {
	// Shards is the fleet size faults are drawn over.
	Shards int
	// Crashes is how many crash/restart draws to attempt; draws that
	// would crash an already-down shard are skipped, so the result may
	// hold fewer.
	Crashes int
	// Window is the span crash instants are drawn uniformly from.
	Window sim.Duration
	// MeanDown is the mean of the exponentially distributed downtime.
	MeanDown sim.Duration
	// Pattern is the correlated shape of each draw; the zero value
	// (Independent) preserves the original single-shard behavior and
	// random stream exactly.
	Pattern Pattern
	// K is the correlated group size for Simultaneous and Rolling draws
	// (clamped to [2, Shards]; ignored for Independent).
	K int
	// Overlap, for Rolling draws, is the fraction of each downtime the
	// next shard's outage overlaps: 0 rolls strictly one-at-a-time, 1
	// degenerates to a simultaneous crash. Clamped to [0, 1].
	Overlap float64
	// Seed makes the draw deterministic.
	Seed uint64
}

// Generate draws a fault schedule deterministically from the seed:
// crash instants uniform over the window, downtimes exponential around
// MeanDown (at least one millisecond), victims uniform over the shards.
// Independent draws crash one shard each; Simultaneous draws crash a
// random K-shard group at one instant; Rolling draws roll a K-shard
// group with the configured overlap. Draws that would crash a shard
// still down from an earlier draw are skipped whole, so the result
// always validates against cfg.Shards.
func Generate(cfg GenConfig) Schedule {
	if cfg.Shards <= 0 || cfg.Crashes <= 0 || cfg.Window <= 0 {
		return nil
	}
	k := cfg.K
	if k < 2 {
		k = 2
	}
	if k > cfg.Shards {
		k = cfg.Shards
	}
	overlap := cfg.Overlap
	if overlap < 0 {
		overlap = 0
	}
	if overlap > 1 {
		overlap = 1
	}
	r := sim.NewRand(cfg.Seed)
	type draw struct {
		at     sim.Duration
		down   sim.Duration
		shards []int
	}
	draws := make([]draw, 0, cfg.Crashes)
	for i := 0; i < cfg.Crashes; i++ {
		d := draw{
			at:   sim.Duration(r.Int63n(int64(cfg.Window))),
			down: sim.Duration(float64(cfg.MeanDown) * r.Exp()),
		}
		if d.down < sim.Millisecond {
			d.down = sim.Millisecond
		}
		switch cfg.Pattern {
		case Independent:
			d.shards = []int{r.Intn(cfg.Shards)}
		default:
			d.shards = r.Perm(cfg.Shards)[:k]
		}
		draws = append(draws, d)
	}
	sort.SliceStable(draws, func(i, j int) bool { return draws[i].at < draws[j].at })
	upAt := make([]sim.Duration, cfg.Shards)
	var out Schedule
	for _, d := range draws {
		stagger := sim.Duration(0)
		if cfg.Pattern == Rolling {
			stagger = sim.Duration(float64(d.down) * (1 - overlap))
		}
		collides := false
		for i, sh := range d.shards {
			if d.at+sim.Duration(i)*stagger < upAt[sh] {
				collides = true // shard still down: skip the whole draw
				break
			}
		}
		if collides {
			continue
		}
		for i, sh := range d.shards {
			at := d.at + sim.Duration(i)*stagger
			out = append(out, CrashRestart(sh, at, d.down)...)
			upAt[sh] = at + d.down
		}
	}
	return out.Sorted()
}
