package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// exampleDir is the checked-in scenario corpus; every file in it must
// parse, validate, round-trip, and match its canned twin.
const exampleDir = "../../examples/scenarios"

// examples reads the checked-in scenario files, keyed by basename.
func examples(t testing.TB) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(exampleDir, "*.scenario"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no scenario files under %s", exampleDir)
	}
	srcs := make(map[string]string)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[strings.TrimSuffix(filepath.Base(p), ".scenario")] = string(src)
	}
	return srcs
}

// TestExamplesRoundTrip pins the codec on the real corpus: every
// checked-in file parses, validates, and survives Parse -> Encode ->
// Parse unchanged (Encode is canonical, so the second parse must
// reproduce the first spec exactly).
func TestExamplesRoundTrip(t *testing.T) {
	for name, src := range examples(t) {
		spec, err := Parse(src)
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: validate: %v", name, err)
			continue
		}
		enc := Encode(spec)
		back, err := Parse(enc)
		if err != nil {
			t.Errorf("%s: reparse of encoded form: %v\n%s", name, err, enc)
			continue
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("%s: Parse(Encode(s)) != s\nencoded:\n%s", name, enc)
		}
		if again := Encode(back); again != enc {
			t.Errorf("%s: Encode not canonical:\nfirst:\n%s\nsecond:\n%s", name, enc, again)
		}
	}
}

// TestExamplesMatchCanned pins the two representations of each canned
// scenario together: the checked-in file must decode to exactly the
// spec the registry builds, so neither can drift from the other.
func TestExamplesMatchCanned(t *testing.T) {
	srcs := examples(t)
	for _, name := range Names() {
		src, ok := srcs[name]
		if !ok {
			t.Errorf("canned scenario %s has no file under %s", name, exampleDir)
			continue
		}
		parsed, err := Parse(src)
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		built, _ := Lookup(name)
		if !reflect.DeepEqual(parsed, built) {
			t.Errorf("%s: file and canned spec differ\nfile:\n%s\ncanned:\n%s",
				name, Encode(parsed), Encode(built))
		}
	}
	for name := range srcs {
		if _, ok := Lookup(name); !ok {
			t.Errorf("file %s.scenario has no canned twin in the registry", name)
		}
	}
}

// TestParseErrors pins the parse rejections as golden messages — the
// text a user sees when a scenario file is wrong, including the line
// number.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", `scenario: line 1: empty input: need "scenario <name>"`},
		{"name not first", "fleet shards=1 system=nfs",
			`scenario: line 1: first directive must be "scenario <name>", got "fleet"`},
		{"unknown directive", "scenario x\nfault-injection crash",
			`scenario: line 2: unknown directive "fault-injection" (valid: assert describe fabric fault fleet retry scenario workload writebehind)`},
		{"duplicate fleet", "scenario x\nfleet shards=1 system=nfs\n\nfleet shards=2 system=nfs",
			`scenario: line 4: duplicate fleet directive (first on line 2)`},
		{"bad system", "scenario x\nfleet shards=1 system=nfsv4",
			`scenario: line 2: fleet: unknown system "nfsv4" (valid: dafs nfs nfs-hybrid nfs-pre odafs)`},
		{"bad time", "scenario x\nfleet shards=1 system=nfs\nfault crash-restart shard=0 at=25 down=30%",
			`scenario: line 3: fault crash-restart: bad time at="25" (use "25%" or an integer with ns/us/ms/s)`},
		{"wrong duration key", "scenario x\nfleet shards=2 system=nfs\nfault degrade shard=0 at=25% down=30% factor=8",
			`scenario: line 3: fault degrade: wrong duration key (use for= for the duration)`},
		{"bad fault kind", "scenario x\nfleet shards=1 system=nfs\nfault meteor shard=0 at=25%",
			`scenario: line 3: fault: unknown kind "meteor" (valid: crash crash-restart degrade degrade-trunk multi-crash restart restore rolling-restart switch-outage)`},
		{"bad switch ref", "scenario x\nfleet shards=2 system=nfs\nfault switch-outage switch=rack3 at=25% down=10%",
			`scenario: line 3: fault switch-outage: bad switch "rack3" (use leafN or spineN)`},
		{"fabric missing leaves", "scenario x\nfleet shards=2 system=nfs\nfabric spines=2",
			`scenario: line 3: fabric: needs leaves=`},
		{"fabric unknown key", "scenario x\nfleet shards=2 system=nfs\nfabric leaves=2 uplinks=4",
			`scenario: line 3: fabric: unknown key "uplinks" (valid: leaves oversub ports spines)`},
		{"assert missing value", "scenario x\nfleet shards=1 system=nfs\nassert min-mbps",
			`scenario: line 3: assert min-mbps: takes exactly one threshold value`},
		{"assert extra value", "scenario x\nfleet shards=1 system=nfs\nassert zero-failed-ops 3",
			`scenario: line 3: assert zero-failed-ops: takes no value`},
		{"bad kv", "scenario x\nfleet shards=1 system=nfs\nretry rto=",
			`scenario: line 3: retry: expected key=value, got "rto="`},
		{"relative rto", "scenario x\nfleet shards=1 system=nfs\nretry rto=5% budget=7",
			`scenario: line 3: retry: rto must be an absolute duration, got "5%"`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: parsed without error", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, err.Error(), c.want)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error is %T, want *ParseError", c.name, err)
		}
	}
}

// FuzzParse checks the codec's round-trip contract on arbitrary input,
// seeded from the checked-in corpus: whatever parses and validates must
// encode to text that parses back to the same spec and validates again,
// and Encode must be a fixed point.
func FuzzParse(f *testing.F) {
	for _, src := range examples(f) {
		f.Add(src)
	}
	// Inputs that once broke the contract: a negative seed, which
	// encoded as a uint64 no integer parse accepted, and NaN, which
	// passes every range check but never equals itself.
	for _, extra := range []string{"workload seed=-1", "workload readfrac=NaN", "assert min-mbps NaN"} {
		f.Add("scenario s\nfleet shards=1 system=odafs\n" + extra + "\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil || spec.Validate() != nil {
			return
		}
		enc := Encode(spec)
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("reparse of encoded form: %v\n%s", err, enc)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("encoded form no longer validates: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("Parse(Encode(s)) != s\nencoded:\n%s", enc)
		}
		if again := Encode(back); again != enc {
			t.Fatalf("Encode is not a fixed point:\n%s\nthen:\n%s", enc, again)
		}
	})
}
