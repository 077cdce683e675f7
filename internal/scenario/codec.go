// Scenario text codec: a line-oriented format with no dependencies.
// Each non-blank, non-comment line is a directive followed by
// positional or key=value fields:
//
//	# comment
//	scenario crash-recovery
//	describe shard-0 crash mid-replay; the fleet must recover
//	fleet shards=4 system=odafs depth=64
//	fabric leaves=2 spines=2 oversub=2
//	retry rto=2ms budget=7
//	writebehind marks=auto
//	workload ops=4000 files=8 filesize=4194304 iosize=16384 readfrac=0.7
//	fault crash-restart shard=0 at=25% down=30%
//	assert min-mbps 1.5
//
// Times are either percentages of the trace's arrival span ("25%") or
// absolute durations with an integer value and ns/us/ms/s unit
// ("10ms"); one spec uses one style throughout. The workload directive
// starts from the replay experiments' base shape (exper.BaseTraceGen),
// so a spec only states what it changes.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"danas/internal/exper"
	"danas/internal/sim"
	"danas/internal/stripe"
)

// ParseError is a syntactic rejection pinned to one line of the input.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("scenario: line %d: %s", e.Line, e.Msg)
}

// Sentinel errors for the syntactic rejections the parse helpers
// produce. Each is a phrase that reads in place inside the rendered
// message ("fleet: unknown system ..."), so call sites wrap them with
// %w and errors.Is can classify a rejection without string matching.
var (
	ErrNotKeyValue      = errors.New("expected key=value")
	ErrUnknown          = errors.New("unknown")
	ErrBadValue         = errors.New("bad")
	ErrMissing          = errors.New("needs")
	ErrOneValue         = errors.New("takes exactly one threshold value")
	ErrNoValue          = errors.New("takes no value")
	ErrArgValue         = errors.New("takes an argument and a threshold value")
	ErrRelativeRTO      = errors.New("rto must be an absolute duration")
	ErrWrongDurationKey = errors.New("wrong duration key")

	// ErrMarksExcludes is returned as-is: writebehind marks=auto and
	// explicit high=/low= marks are mutually exclusive.
	ErrMarksExcludes = errors.New("writebehind: marks=auto excludes high=/low=")
)

// directives lists the accepted line directives, sorted.
var directives = []string{"assert", "describe", "fabric", "fault", "fleet", "retry", "scenario", "workload", "writebehind"}

// Parse decodes one scenario spec from its text form. Errors are
// *ParseError values naming the offending line. Parse checks syntax
// only; call Validate for the semantic pass.
func Parse(src string) (*Spec, error) {
	spec := &Spec{Workload: exper.BaseTraceGen()}
	seen := make(map[string]int)
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n := ln + 1
		fields := strings.Fields(line)
		dir, rest := fields[0], fields[1:]
		if spec.Name == "" && dir != "scenario" {
			return nil, &ParseError{n, fmt.Sprintf("first directive must be \"scenario <name>\", got %q", dir)}
		}
		if prev, dup := seen[dir]; dup && dir != "fault" && dir != "assert" {
			return nil, &ParseError{n, fmt.Sprintf("duplicate %s directive (first on line %d)", dir, prev)}
		}
		seen[dir] = n
		var err error
		switch dir {
		case "scenario":
			if len(rest) != 1 {
				return nil, &ParseError{n, "scenario takes exactly one name token"}
			}
			spec.Name = rest[0]
		case "describe":
			spec.Describe = strings.Join(rest, " ")
		case "fleet":
			err = parseFleet(spec, rest)
		case "fabric":
			err = parseFabric(spec, rest)
		case "retry":
			err = parseRetry(spec, rest)
		case "writebehind":
			err = parseWriteBehind(spec, rest)
		case "workload":
			err = parseWorkload(spec, rest)
		case "fault":
			err = parseFault(spec, rest)
		case "assert":
			err = parseAssert(spec, rest)
		default:
			return nil, &ParseError{n, fmt.Sprintf("unknown directive %q (valid: %s)",
				dir, strings.Join(directives, " "))}
		}
		if err != nil {
			return nil, &ParseError{n, err.Error()}
		}
	}
	if spec.Name == "" {
		return nil, &ParseError{1, "empty input: need \"scenario <name>\""}
	}
	return spec, nil
}

// splitKV splits a "key=value" token.
func splitKV(tok string) (key, val string, err error) {
	i := strings.IndexByte(tok, '=')
	if i <= 0 || i == len(tok)-1 {
		return "", "", fmt.Errorf("%w, got %q", ErrNotKeyValue, tok)
	}
	return tok[:i], tok[i+1:], nil
}

func parseInt(dir, key, val string) (int, error) {
	v, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("%s: %w %s %q (need an integer)", dir, ErrBadValue, key, val)
	}
	return v, nil
}

func parseFloat(dir, key, val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(v) {
		return 0, fmt.Errorf("%s: %w %s %q (need a number)", dir, ErrBadValue, key, val)
	}
	return v, nil
}

// parseTime decodes a TimeSpec: "25%" or an integer with a ns/us/ms/s
// suffix.
func parseTime(dir, key, val string) (TimeSpec, error) {
	bad := func() (TimeSpec, error) {
		return TimeSpec{}, fmt.Errorf("%s: %w time %s=%q (use \"25%%\" or an integer with ns/us/ms/s)", dir, ErrBadValue, key, val)
	}
	if p, ok := strings.CutSuffix(val, "%"); ok {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return bad()
		}
		return Pct(v), nil
	}
	units := []struct {
		suffix string
		unit   sim.Duration
	}{{"ns", sim.Nanosecond}, {"us", sim.Microsecond}, {"ms", sim.Millisecond}, {"s", sim.Second}}
	for _, u := range units {
		p, ok := strings.CutSuffix(val, u.suffix)
		if !ok {
			continue
		}
		// "ms" also ends in "s"; require the remainder be numeric.
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			continue
		}
		return Dur(sim.Duration(v) * u.unit), nil
	}
	return bad()
}

// formatDur renders a duration in the largest unit that divides it
// exactly, so Encode o Parse is the identity.
func formatDur(d sim.Duration) string {
	switch {
	case d%sim.Second == 0:
		return fmt.Sprintf("%ds", d/sim.Second)
	case d%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", d/sim.Millisecond)
	case d%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", d/sim.Microsecond)
	default:
		return fmt.Sprintf("%dns", d)
	}
}

func parseFleet(spec *Spec, toks []string) error {
	for _, tok := range toks {
		k, v, err := splitKV(tok)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		switch k {
		case "shards":
			if spec.Fleet.Shards, err = parseInt("fleet", k, v); err != nil {
				return err
			}
		case "system":
			if _, ok := systemNames[v]; !ok {
				return fmt.Errorf("fleet: %w system %q (valid: %s)", ErrUnknown, v, strings.Join(SystemTokens(), " "))
			}
			spec.Fleet.System = v
		case "depth":
			if spec.Fleet.Depth, err = parseInt("fleet", k, v); err != nil {
				return err
			}
		case "replicas":
			if spec.Fleet.Replicas, err = parseInt("fleet", k, v); err != nil {
				return err
			}
		case "ack":
			if _, err := stripe.ParseAck(v); err != nil {
				return fmt.Errorf("fleet: %w ack %q (valid: sync quorum async)", ErrUnknown, v)
			}
			spec.Fleet.Ack = v
		default:
			return fmt.Errorf("fleet: %w key %q (valid: ack depth replicas shards system)", ErrUnknown, k)
		}
	}
	if spec.Fleet.Shards == 0 || spec.Fleet.System == "" {
		return fmt.Errorf("fleet: %w shards= and system=", ErrMissing)
	}
	return nil
}

func parseFabric(spec *Spec, toks []string) error {
	for _, tok := range toks {
		k, v, err := splitKV(tok)
		if err != nil {
			return fmt.Errorf("fabric: %w", err)
		}
		switch k {
		case "leaves":
			spec.Fabric.Leaves, err = parseInt("fabric", k, v)
		case "spines":
			spec.Fabric.Spines, err = parseInt("fabric", k, v)
		case "oversub":
			spec.Fabric.Oversub, err = parseInt("fabric", k, v)
		case "ports":
			spec.Fabric.Ports, err = parseInt("fabric", k, v)
		default:
			return fmt.Errorf("fabric: %w key %q (valid: leaves oversub ports spines)", ErrUnknown, k)
		}
		if err != nil {
			return err
		}
	}
	if spec.Fabric.Leaves == 0 {
		return fmt.Errorf("fabric: %w leaves=", ErrMissing)
	}
	return nil
}

func parseRetry(spec *Spec, toks []string) error {
	for _, tok := range toks {
		k, v, err := splitKV(tok)
		if err != nil {
			return fmt.Errorf("retry: %w", err)
		}
		switch k {
		case "rto":
			t, terr := parseTime("retry", k, v)
			if terr != nil {
				return terr
			}
			if t.Mode != TimeDur {
				return fmt.Errorf("retry: %w, got %q", ErrRelativeRTO, v)
			}
			spec.Retry.RTO = t.Dur
		case "budget":
			if spec.Retry.Budget, err = parseInt("retry", k, v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("retry: %w key %q (valid: budget rto)", ErrUnknown, k)
		}
	}
	return nil
}

func parseWriteBehind(spec *Spec, toks []string) error {
	spec.WB.Enabled = true
	for _, tok := range toks {
		k, v, err := splitKV(tok)
		if err != nil {
			return fmt.Errorf("writebehind: %w", err)
		}
		switch k {
		case "marks":
			if v != "auto" {
				return fmt.Errorf("writebehind: %w marks=%q (only \"auto\"; otherwise give high=/low=)", ErrBadValue, v)
			}
			spec.WB.Auto = true
		case "high":
			if spec.WB.High, err = parseInt("writebehind", k, v); err != nil {
				return err
			}
		case "low":
			if spec.WB.Low, err = parseInt("writebehind", k, v); err != nil {
				return err
			}
		case "batch":
			if spec.WB.Batch, err = parseInt("writebehind", k, v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("writebehind: %w key %q (valid: batch high low marks)", ErrUnknown, k)
		}
	}
	if spec.WB.Auto && (spec.WB.High != 0 || spec.WB.Low != 0) {
		return ErrMarksExcludes
	}
	return nil
}

func parseWorkload(spec *Spec, toks []string) error {
	for _, tok := range toks {
		k, v, err := splitKV(tok)
		if err != nil {
			return fmt.Errorf("workload: %w", err)
		}
		w := &spec.Workload
		switch k {
		case "ops":
			w.Ops, err = parseInt("workload", k, v)
		case "files":
			w.Files, err = parseInt("workload", k, v)
		case "filesize":
			var n int
			n, err = parseInt("workload", k, v)
			w.FileSize = int64(n)
		case "iosize":
			var n int
			n, err = parseInt("workload", k, v)
			w.IOSize = int64(n)
		case "readfrac":
			w.ReadFrac, err = parseFloat("workload", k, v)
		case "filezipf":
			w.FileZipf, err = parseFloat("workload", k, v)
		case "offzipf":
			w.OffZipf, err = parseFloat("workload", k, v)
		case "rate":
			w.Rate, err = parseFloat("workload", k, v)
		case "commitevery":
			w.CommitEvery, err = parseInt("workload", k, v)
		case "seed":
			if w.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
				err = fmt.Errorf("workload: %w seed %q (need a non-negative integer)", ErrBadValue, v)
			}
		default:
			return fmt.Errorf("workload: %w key %q (valid: commitevery files filesize filezipf iosize offzipf ops rate readfrac seed)", ErrUnknown, k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func parseFault(spec *Spec, toks []string) error {
	if len(toks) == 0 {
		return fmt.Errorf("fault: %w a kind (valid: %s)", ErrMissing, strings.Join(FaultKinds(), " "))
	}
	f := Fault{Kind: toks[0]}
	if _, ok := faultKinds[f.Kind]; !ok {
		return fmt.Errorf("fault: %w kind %q (valid: %s)", ErrUnknown, f.Kind, strings.Join(FaultKinds(), " "))
	}
	for _, tok := range toks[1:] {
		k, v, err := splitKV(tok)
		if err != nil {
			return fmt.Errorf("fault %s: %w", f.Kind, err)
		}
		switch k {
		case "shard":
			sh, serr := parseInt("fault "+f.Kind, k, v)
			if serr != nil {
				return serr
			}
			f.Shards = append(f.Shards, sh)
		case "shards":
			for _, part := range strings.Split(v, ",") {
				sh, serr := parseInt("fault "+f.Kind, k, part)
				if serr != nil {
					return serr
				}
				f.Shards = append(f.Shards, sh)
			}
		case "at":
			if f.At, err = parseTime("fault "+f.Kind, k, v); err != nil {
				return err
			}
		case "down", "for":
			if k != downKey(f.Kind) {
				return fmt.Errorf("fault %s: %w (use %s= for the duration)", f.Kind, ErrWrongDurationKey, downKey(f.Kind))
			}
			if f.Down, err = parseTime("fault "+f.Kind, k, v); err != nil {
				return err
			}
		case "stagger":
			if f.Stagger, err = parseTime("fault "+f.Kind, k, v); err != nil {
				return err
			}
		case "factor":
			if f.Factor, err = parseInt("fault "+f.Kind, k, v); err != nil {
				return err
			}
		case "copy":
			if f.Copy, err = parseInt("fault "+f.Kind, k, v); err != nil {
				return err
			}
		case "switch":
			if _, _, err := parseSwitchRef(v); err != nil {
				return fmt.Errorf("fault %s: %w", f.Kind, err)
			}
			f.Switch = v
		default:
			return fmt.Errorf("fault %s: %w key %q (valid: at copy down factor for shard shards stagger switch)", f.Kind, ErrUnknown, k)
		}
	}
	spec.Faults = append(spec.Faults, f)
	return nil
}

func parseAssert(spec *Spec, toks []string) error {
	if len(toks) == 0 {
		return fmt.Errorf("assert: %w a kind (valid: %s)", ErrMissing, strings.Join(AssertKinds(), " "))
	}
	a := Assert{Kind: toks[0]}
	sh, ok := assertKinds[a.Kind]
	if !ok {
		return fmt.Errorf("assert: %w kind %q (valid: %s)", ErrUnknown, a.Kind, strings.Join(AssertKinds(), " "))
	}
	if sh.arged {
		// Arged kinds read "assert max-phase-ms stall 5": the token
		// argument sits between the kind and the threshold. Its meaning
		// (a phase or gauge-class name) is checked by Validate.
		if len(toks) != 3 {
			return fmt.Errorf("assert %s: %w", a.Kind, ErrArgValue)
		}
		a.Arg = toks[1]
		toks = toks[1:]
	}
	switch {
	case sh.valued && len(toks) == 2:
		v, err := parseFloat("assert "+a.Kind, "threshold", toks[1])
		if err != nil {
			return err
		}
		a.Value = v
	case sh.valued:
		return fmt.Errorf("assert %s: %w", a.Kind, ErrOneValue)
	case len(toks) != 1:
		return fmt.Errorf("assert %s: %w", a.Kind, ErrNoValue)
	}
	spec.Asserts = append(spec.Asserts, a)
	return nil
}

// Encode renders the spec in canonical text form; Parse(Encode(s))
// reproduces s exactly. Workload keys are emitted only where they
// differ from the base shape, mirroring how specs are written.
func Encode(s *Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", s.Name)
	if s.Describe != "" {
		fmt.Fprintf(&b, "describe %s\n", s.Describe)
	}
	fmt.Fprintf(&b, "fleet shards=%d system=%s", s.Fleet.Shards, s.Fleet.System)
	if s.Fleet.Depth != 0 {
		fmt.Fprintf(&b, " depth=%d", s.Fleet.Depth)
	}
	if s.Fleet.Replicas != 0 {
		fmt.Fprintf(&b, " replicas=%d", s.Fleet.Replicas)
	}
	if s.Fleet.Ack != "" {
		fmt.Fprintf(&b, " ack=%s", s.Fleet.Ack)
	}
	b.WriteString("\n")
	if s.Fabric != (FabricSpec{}) {
		fmt.Fprintf(&b, "fabric leaves=%d", s.Fabric.Leaves)
		if s.Fabric.Spines != 0 {
			fmt.Fprintf(&b, " spines=%d", s.Fabric.Spines)
		}
		if s.Fabric.Oversub != 0 {
			fmt.Fprintf(&b, " oversub=%d", s.Fabric.Oversub)
		}
		if s.Fabric.Ports != 0 {
			fmt.Fprintf(&b, " ports=%d", s.Fabric.Ports)
		}
		b.WriteString("\n")
	}
	if s.Retry != (Retry{}) {
		fmt.Fprintf(&b, "retry rto=%s budget=%d\n", formatDur(s.Retry.RTO), s.Retry.Budget)
	}
	if s.WB.Enabled {
		if s.WB.Auto {
			b.WriteString("writebehind marks=auto")
		} else {
			fmt.Fprintf(&b, "writebehind high=%d low=%d batch=%d", s.WB.High, s.WB.Low, s.WB.Batch)
		}
		b.WriteString("\n")
	}
	if kvs := workloadDiff(s); len(kvs) > 0 {
		fmt.Fprintf(&b, "workload %s\n", strings.Join(kvs, " "))
	}
	for _, f := range s.Faults {
		fmt.Fprintf(&b, "fault %s", f.Kind)
		switch shape := faultKinds[f.Kind]; {
		case shape.swtch:
			fmt.Fprintf(&b, " switch=%s", f.Switch)
		case shape.multi:
			strs := make([]string, len(f.Shards))
			for i, sh := range f.Shards {
				strs[i] = strconv.Itoa(sh)
			}
			fmt.Fprintf(&b, " shards=%s", strings.Join(strs, ","))
		default:
			fmt.Fprintf(&b, " shard=%d", f.Shards[0])
		}
		if f.Copy != 0 {
			fmt.Fprintf(&b, " copy=%d", f.Copy)
		}
		fmt.Fprintf(&b, " at=%s", f.At)
		if f.Down.Mode != TimeUnset {
			fmt.Fprintf(&b, " %s=%s", downKey(f.Kind), f.Down)
		}
		if f.Stagger.Mode != TimeUnset {
			fmt.Fprintf(&b, " stagger=%s", f.Stagger)
		}
		if f.Factor != 0 {
			fmt.Fprintf(&b, " factor=%d", f.Factor)
		}
		b.WriteString("\n")
	}
	for _, a := range s.Asserts {
		fmt.Fprintf(&b, "assert %s\n", a)
	}
	return b.String()
}

// workloadDiff lists the workload keys differing from the base shape,
// in a fixed order.
func workloadDiff(s *Spec) []string {
	base := exper.BaseTraceGen()
	var kvs []string
	add := func(k, v string) { kvs = append(kvs, k+"="+v) }
	w := s.Workload
	if w.Ops != base.Ops {
		add("ops", strconv.Itoa(w.Ops))
	}
	if w.Files != base.Files {
		add("files", strconv.Itoa(w.Files))
	}
	if w.FileSize != base.FileSize {
		add("filesize", strconv.FormatInt(w.FileSize, 10))
	}
	if w.IOSize != base.IOSize {
		add("iosize", strconv.FormatInt(w.IOSize, 10))
	}
	if w.ReadFrac != base.ReadFrac {
		add("readfrac", strconv.FormatFloat(w.ReadFrac, 'g', -1, 64))
	}
	if w.FileZipf != base.FileZipf {
		add("filezipf", strconv.FormatFloat(w.FileZipf, 'g', -1, 64))
	}
	if w.OffZipf != base.OffZipf {
		add("offzipf", strconv.FormatFloat(w.OffZipf, 'g', -1, 64))
	}
	if w.Rate != base.Rate {
		add("rate", strconv.FormatFloat(w.Rate, 'g', -1, 64))
	}
	if w.CommitEvery != base.CommitEvery {
		add("commitevery", strconv.Itoa(w.CommitEvery))
	}
	if w.Seed != base.Seed {
		add("seed", strconv.FormatUint(w.Seed, 10))
	}
	sort.Strings(kvs)
	return kvs
}
