package main

import (
	"errors"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestCheckObsFlags pins the export-flag validation: the observability
// outputs attach to exactly one scenario run, and every other shape of
// invocation is a classified usage error.
func TestCheckObsFlags(t *testing.T) {
	on := obsOuts{Trace: "t.json"}
	cases := []struct {
		name         string
		ob           obsOuts
		nSpecs       int
		validate     bool
		stress       bool
		wantErr      bool
		wantFragment string
	}{
		{name: "disabled ignores everything", ob: obsOuts{}, nSpecs: 5, validate: true, stress: true},
		{name: "one spec with trace", ob: on, nSpecs: 1},
		{name: "one spec with telemetry", ob: obsOuts{Telemetry: "t.tsv"}, nSpecs: 1},
		{name: "one spec with both", ob: obsOuts{Trace: "a", Telemetry: "b"}, nSpecs: 1},
		{name: "stress fleet", ob: on, nSpecs: 1, stress: true,
			wantErr: true, wantFragment: "-scenario-seed"},
		{name: "validate only", ob: on, nSpecs: 1, validate: true,
			wantErr: true, wantFragment: "-scenario-validate"},
		{name: "no specs", ob: on, nSpecs: 0,
			wantErr: true, wantFragment: "exactly one -scenario item, got 0"},
		{name: "spec batch", ob: on, nSpecs: 3,
			wantErr: true, wantFragment: "exactly one -scenario item, got 3"},
	}
	for _, c := range cases {
		err := checkObsFlags(c.ob, c.nSpecs, c.validate, c.stress)
		if !c.wantErr {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrObsFlag) {
			t.Errorf("%s: error %v does not wrap ErrObsFlag", c.name, err)
		}
		if !strings.Contains(err.Error(), c.wantFragment) {
			t.Errorf("%s: error = %v, want %q in it", c.name, err, c.wantFragment)
		}
	}
}

// TestObsOutsEnabled pins the arming predicate the flag checks hang off.
func TestObsOutsEnabled(t *testing.T) {
	cases := []struct {
		ob   obsOuts
		want bool
	}{
		{obsOuts{}, false},
		{obsOuts{Trace: "x"}, true},
		{obsOuts{Telemetry: "y"}, true},
		{obsOuts{Trace: "x", Telemetry: "y"}, true},
	}
	for _, c := range cases {
		if got := c.ob.enabled(); got != c.want {
			t.Errorf("enabled(%+v) = %v, want %v", c.ob, got, c.want)
		}
	}
}

// TestValidNames pins the generated usage list: sorted, covering every
// registered experiment plus the "all" alias, with no duplicates.
func TestValidNames(t *testing.T) {
	names := validNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("validNames not sorted: %v", names)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
	}
	if !seen["all"] {
		t.Error(`validNames missing "all"`)
	}
	for n := range known {
		if !seen[n] {
			t.Errorf("registered experiment %q missing from validNames", n)
		}
	}
}

// TestREADMEListsEveryExperiment pins the README's experiment list to the
// registry: the backquoted span after "Experiments:" names every
// runnable experiment and nothing else.
func TestREADMEListsEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(src), "\nExperiments: `")
	if !ok {
		t.Fatal("README has no \"Experiments: `...`\" list")
	}
	list, _, _ := strings.Cut(rest, "`")
	listed := make(map[string]bool)
	for _, n := range strings.Fields(list) {
		if _, ok := known[n]; !ok {
			t.Errorf("README lists %q, which is not a registered experiment", n)
		}
		listed[n] = true
	}
	for n := range known {
		if !listed[n] {
			t.Errorf("README's experiment list is missing %q", n)
		}
	}
}
