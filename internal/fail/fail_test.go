package fail

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"danas/internal/sim"
)

// recorder is a Target that logs (time, action, victim) tuples: a
// shard, shard.copy for a replica copy, or a switch index.
type recorder struct {
	s   *sim.Scheduler
	log []string
}

func (r *recorder) note(action string, i int) {
	r.log = append(r.log, fmt.Sprintf("%v %s %d", sim.Duration(r.s.Now()), action, i))
}

func (r *recorder) noteCopy(action string, shard, copy int) {
	if copy == 0 {
		r.note(action, shard)
		return
	}
	r.log = append(r.log, fmt.Sprintf("%v %s %d.%d", sim.Duration(r.s.Now()), action, shard, copy))
}

func (r *recorder) Crash(shard, copy int)                     { r.noteCopy("crash", shard, copy) }
func (r *recorder) Restart(shard, copy int)                   { r.noteCopy("restart", shard, copy) }
func (r *recorder) DegradeLink(shard, copy int, rate float64) { r.noteCopy("degrade", shard, copy) }
func (r *recorder) RestoreLink(shard, copy int)               { r.noteCopy("restore", shard, copy) }
func (r *recorder) LeafDown(i int)                            { r.note("leaf-down", i) }
func (r *recorder) LeafUp(i int)                              { r.note("leaf-up", i) }
func (r *recorder) SpineDown(i int)                           { r.note("spine-down", i) }
func (r *recorder) SpineUp(i int)                             { r.note("spine-up", i) }
func (r *recorder) DegradeTrunk(leaf int, rate float64)       { r.note("degrade-trunk", leaf) }
func (r *recorder) RestoreTrunk(leaf int)                     { r.note("restore-trunk", leaf) }

func TestValidateRejectsBadSchedules(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
	}{
		{"negative time", Schedule{{At: -1, Kind: Crash}}},
		{"out of order", Schedule{{At: 10, Kind: Crash}, {At: 5, Kind: Restart}}},
		{"shard out of range", Schedule{{At: 0, Kind: Crash, Shard: 2}}},
		{"double crash", Schedule{{At: 0, Kind: Crash}, {At: 1, Kind: Crash}}},
		{"restart of up shard", Schedule{{At: 0, Kind: Restart}}},
		{"restore of healthy link", Schedule{{At: 0, Kind: RestoreLink}}},
		{"zero-rate degrade", Schedule{{At: 0, Kind: DegradeLink}}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(2); err == nil {
			t.Errorf("%s: Validate accepted %v", tc.name, tc.s)
		}
	}
	good := Merge(CrashRestart(0, 10, 20), Degrade(1, 5, 30, 1e6))
	if err := good.Validate(2); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestArmFiresInOrder(t *testing.T) {
	s := sim.New()
	defer s.Close()
	rec := &recorder{s: s}
	sched := Merge(
		CrashRestart(1, 10*sim.Millisecond, 20*sim.Millisecond),
		Degrade(0, 5*sim.Millisecond, 40*sim.Millisecond, 31.25e6),
	)
	if err := sched.Arm(s, 2, rec); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	s.Run()
	want := []string{
		"5.000ms degrade 0",
		"10.000ms crash 1",
		"30.000ms restart 1",
		"45.000ms restore 0",
	}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("event log = %v, want %v", rec.log, want)
	}
}

func TestArmRejectsInvalid(t *testing.T) {
	s := sim.New()
	defer s.Close()
	rec := &recorder{s: s}
	bad := Schedule{{At: 0, Kind: Restart, Shard: 0}}
	if err := bad.Arm(s, 1, rec); err == nil {
		t.Fatal("Arm accepted an invalid schedule")
	}
	s.Run()
	if len(rec.log) != 0 {
		t.Fatalf("invalid schedule fired events: %v", rec.log)
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{
		Shards:   4,
		Crashes:  12,
		Window:   sim.Second,
		MeanDown: 50 * sim.Millisecond,
		Seed:     7,
	}
	a := Generate(cfg)
	b := Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("generator produced no events")
	}
	if err := a.Validate(cfg.Shards); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	cfg.Seed = 8
	if reflect.DeepEqual(a, Generate(cfg)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestValidateTypedErrors pins the typed reason each illegal sequence
// is rejected with — the contract the scenario engine's error reporting
// is built on.
func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		want error
	}{
		{"negative time", Schedule{{At: -1, Kind: Crash}}, ErrNegativeTime},
		{"out of order", Schedule{{At: 10, Kind: Crash}, {At: 5, Kind: Restart}}, ErrOutOfOrder},
		{"shard out of range", Schedule{{At: 0, Kind: Crash, Shard: 2}}, ErrShardRange},
		{"double crash", Schedule{{At: 0, Kind: Crash}, {At: 1, Kind: Crash}}, ErrAlreadyDown},
		{"restart of live shard", Schedule{{At: 0, Kind: Restart}}, ErrNotDown},
		{"restore of healthy link", Schedule{{At: 0, Kind: RestoreLink}}, ErrNotDegraded},
		{"zero-rate degrade", Schedule{{At: 0, Kind: DegradeLink}}, ErrBadRate},
		{"degrade of crashed shard", Schedule{
			{At: 0, Kind: Crash},
			{At: 1, Kind: DegradeLink, Rate: 1e6},
		}, ErrShardDark},
		{"restore against crashed shard", Schedule{
			{At: 0, Kind: DegradeLink, Rate: 1e6},
			{At: 1, Kind: Crash},
			{At: 2, Kind: RestoreLink},
		}, ErrShardDark},
	}
	for _, tc := range cases {
		err := tc.s.Validate(2)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		var ev *EventError
		if !errors.As(err, &ev) {
			t.Errorf("%s: err %v is not an *EventError", tc.name, err)
		}
	}
}

// TestSimultaneousCrash checks the correlated-loss helper takes every
// listed shard down at one instant and brings them all back together.
func TestSimultaneousCrash(t *testing.T) {
	s := SimultaneousCrash([]int{0, 2}, 10, 5)
	want := Schedule{
		{At: 10, Kind: Crash, Shard: 0},
		{At: 10, Kind: Crash, Shard: 2},
		{At: 15, Kind: Restart, Shard: 0},
		{At: 15, Kind: Restart, Shard: 2},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("schedule = %v, want %v", s, want)
	}
	if err := s.Validate(3); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestRollingRestart checks the stagger controls how many shards a roll
// keeps dark at once: stagger >= down is sequential (valid), a shorter
// stagger overlaps consecutive outages, and stagger 0 degenerates to a
// simultaneous crash.
func TestRollingRestart(t *testing.T) {
	seq := RollingRestart([]int{0, 1, 2}, 0, 5, 5)
	if err := seq.Validate(3); err != nil {
		t.Fatalf("sequential roll invalid: %v", err)
	}
	// With stagger 2 < down 5, shard 1 crashes while shard 0 is still
	// down: the overlap is real.
	over := RollingRestart([]int{0, 1}, 0, 5, 2)
	want := Schedule{
		{At: 0, Kind: Crash, Shard: 0},
		{At: 2, Kind: Crash, Shard: 1},
		{At: 5, Kind: Restart, Shard: 0},
		{At: 7, Kind: Restart, Shard: 1},
	}
	if !reflect.DeepEqual(over, want) {
		t.Fatalf("overlapping roll = %v, want %v", over, want)
	}
	if err := over.Validate(2); err != nil {
		t.Fatalf("overlapping roll invalid: %v", err)
	}
	if !reflect.DeepEqual(RollingRestart([]int{0, 1}, 3, 4, 0), SimultaneousCrash([]int{0, 1}, 3, 4)) {
		t.Fatal("zero-stagger roll is not a simultaneous crash")
	}
}

// TestGenerateCorrelatedPatterns checks the correlated generator modes
// stay deterministic, valid, and actually correlated: simultaneous
// draws crash K shards at one instant; rolling draws overlap outages.
func TestGenerateCorrelatedPatterns(t *testing.T) {
	base := GenConfig{
		Shards:   8,
		Crashes:  10,
		Window:   sim.Second,
		MeanDown: 50 * sim.Millisecond,
		Seed:     7,
	}

	sim3 := base
	sim3.Pattern = Simultaneous
	sim3.K = 3
	a := Generate(sim3)
	if !reflect.DeepEqual(a, Generate(sim3)) {
		t.Fatal("simultaneous: same seed produced different schedules")
	}
	if err := a.Validate(sim3.Shards); err != nil {
		t.Fatalf("simultaneous: %v", err)
	}
	// Every crash instant must take down exactly K shards.
	crashesAt := make(map[sim.Duration]int)
	for _, e := range a {
		if e.Kind == Crash {
			crashesAt[e.At]++
		}
	}
	if len(crashesAt) == 0 {
		t.Fatal("simultaneous: no crashes generated")
	}
	for at, n := range crashesAt {
		if n != 3 {
			t.Errorf("simultaneous: crash at %v took down %d shards, want 3", at, n)
		}
	}

	roll := base
	roll.Pattern = Rolling
	roll.K = 4
	roll.Overlap = 0.5
	b := Generate(roll)
	if !reflect.DeepEqual(b, Generate(roll)) {
		t.Fatal("rolling: same seed produced different schedules")
	}
	if err := b.Validate(roll.Shards); err != nil {
		t.Fatalf("rolling: %v", err)
	}
	// With 50% overlap some instant must have >= 2 shards down at once.
	maxDark, dark := 0, 0
	for _, e := range b {
		switch e.Kind {
		case Crash:
			if dark++; dark > maxDark {
				maxDark = dark
			}
		case Restart:
			dark--
		}
	}
	if maxDark < 2 {
		t.Fatalf("rolling with overlap never had two shards dark (max %d)", maxDark)
	}

	// The Independent zero value must reproduce the original stream:
	// the pattern knobs may not disturb existing seeds.
	if !reflect.DeepEqual(Generate(base), Generate(GenConfig{
		Shards: 8, Crashes: 10, Window: sim.Second,
		MeanDown: 50 * sim.Millisecond, Seed: 7,
		K: 5, Overlap: 0.9, // ignored for Independent
	})) {
		t.Fatal("pattern knobs disturbed the Independent draw stream")
	}
}

// Switch-scoped schedules validate against the fleet topology with the
// same typed-error discipline as shard events.
func TestValidateTopoSwitchEvents(t *testing.T) {
	topo := Topo{Shards: 2, Leaves: 4, Spines: 2}
	cases := []struct {
		name string
		s    Schedule
		want error
	}{
		{"leaf out of range",
			Schedule{{At: 0, Kind: SwitchDown, Tier: TierLeaf, Switch: 4}}, ErrSwitchRange},
		{"spine out of range",
			Schedule{{At: 0, Kind: SwitchDown, Tier: TierSpine, Switch: 2}}, ErrSwitchRange},
		{"double switch-down",
			Schedule{
				{At: 0, Kind: SwitchDown, Tier: TierSpine, Switch: 0},
				{At: 1, Kind: SwitchDown, Tier: TierSpine, Switch: 0},
			}, ErrSwitchAlreadyDown},
		{"switch-up of live switch",
			Schedule{{At: 0, Kind: SwitchUp, Tier: TierLeaf, Switch: 1}}, ErrSwitchNotDown},
		{"trunk event on a spine",
			Schedule{{At: 0, Kind: DegradeTrunk, Tier: TierSpine, Switch: 0, Rate: 1e6}}, ErrTrunkTier},
		{"trunk event on a down leaf",
			Schedule{
				{At: 0, Kind: SwitchDown, Tier: TierLeaf, Switch: 1},
				{At: 1, Kind: DegradeTrunk, Tier: TierLeaf, Switch: 1, Rate: 1e6},
			}, ErrSwitchDark},
		{"zero-rate trunk degrade",
			Schedule{{At: 0, Kind: DegradeTrunk, Tier: TierLeaf, Switch: 1}}, ErrBadRate},
		{"restore of undegraded trunk",
			Schedule{{At: 0, Kind: RestoreTrunk, Tier: TierLeaf, Switch: 1}}, ErrTrunkNotDegraded},
	}
	for _, tc := range cases {
		err := tc.s.ValidateTopo(topo)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		var ee *EventError
		if !errors.As(err, &ee) {
			t.Errorf("%s: error %v does not carry the event", tc.name, err)
		}
	}

	good := Merge(
		SwitchOutage(TierSpine, 1, 10, 20),
		TrunkDegrade(2, 5, 30, 1e6),
	)
	if err := good.ValidateTopo(topo); err != nil {
		t.Errorf("valid switch schedule rejected: %v", err)
	}
	// Trunk events need a multi-leaf fabric; the shard-count Validate
	// entry point implies the single-switch star.
	if err := TrunkDegrade(0, 0, 10, 1e6).Validate(2); !errors.Is(err, ErrNoTrunk) {
		t.Errorf("trunk degrade on the star: got %v, want ErrNoTrunk", err)
	}
	// Spine events are out of range on the star (it has no spines).
	if err := SwitchOutage(TierSpine, 0, 0, 10).Validate(2); !errors.Is(err, ErrSwitchRange) {
		t.Errorf("spine outage on the star: got %v, want ErrSwitchRange", err)
	}
}

// ArmTopo dispatches switch, shard and replica-copy events through
// the one Target in schedule order.
func TestArmTopoSwitchEvents(t *testing.T) {
	s := sim.New()
	defer s.Close()
	rec := &recorder{s: s}
	sched := Merge(
		SwitchOutage(TierSpine, 1, 10*sim.Millisecond, 20*sim.Millisecond),
		TrunkDegrade(2, 5*sim.Millisecond, 40*sim.Millisecond, 1e6),
		CrashRestart(0, 15*sim.Millisecond, 10*sim.Millisecond),
		CrashRestartCopy(0, 1, 20*sim.Millisecond, 15*sim.Millisecond),
		SwitchOutage(TierLeaf, 3, 50*sim.Millisecond, 5*sim.Millisecond),
	)
	topo := Topo{Shards: 1, Leaves: 4, Spines: 2}
	if err := sched.ArmTopo(s, topo, rec); err != nil {
		t.Fatalf("ArmTopo: %v", err)
	}
	s.Run()
	want := []string{
		"5.000ms degrade-trunk 2",
		"10.000ms spine-down 1",
		"15.000ms crash 0",
		"20.000ms crash 0.1",
		"25.000ms restart 0",
		"30.000ms spine-up 1",
		"35.000ms restart 0.1",
		"45.000ms restore-trunk 2",
		"50.000ms leaf-down 3",
		"55.000ms leaf-up 3",
	}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("event log = %v, want %v", rec.log, want)
	}
}
