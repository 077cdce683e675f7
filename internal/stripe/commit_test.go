package stripe

import (
	"errors"
	"fmt"
	"testing"

	"danas/internal/nas"
	"danas/internal/sim"
)

// failingCommitSub is a fakeSub whose commits fail with a fixed error.
type failingCommitSub struct {
	*fakeSub
	err error
}

func (f *failingCommitSub) NewTask() nas.Task { return &nowTask{c: f} }

func (f *failingCommitSub) Commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	f.commits = append(f.commits, Span{Shard: f.shard, Off: off, Len: n})
	return f.err
}

// TestCommitAttemptsEveryShard is the regression test for the
// first-error-returns bug: a full-file commit over 4 shards with shard
// 1 failing must still attempt shards 2 and 3 (their verifier recovery
// runs), and the failure must surface as a typed aggregate naming
// exactly the shards that failed.
func TestCommitAttemptsEveryShard(t *testing.T) {
	sentinel := errors.New("shard 1 commit refused")
	subs := make([]nas.Client, 4)
	fakes := make([]*fakeSub, 4)
	for i := range subs {
		fakes[i] = &fakeSub{shard: i, size: 1024}
		if i == 1 {
			subs[i] = &failingCommitSub{fakeSub: fakes[i], err: sentinel}
		} else {
			subs[i] = fakes[i]
		}
	}
	c := NewClient(Layout{Shards: 4, Unit: 16}, subs)

	var err error
	s := sim.New()
	defer s.Close()
	s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "f")
		err = c.Commit(p, h, 0, 0)
	})
	s.Run()

	for i, f := range fakes {
		if len(f.commits) != 1 {
			t.Errorf("shard %d saw %d commits, want 1 (every shard must be attempted)", i, len(f.commits))
		}
	}
	var agg *CommitError
	if !errors.As(err, &agg) {
		t.Fatalf("Commit error = %v (%T), want *CommitError", err, err)
	}
	if len(agg.Shards) != 1 || agg.Shards[0] != 1 {
		t.Errorf("CommitError.Shards = %v, want [1]", agg.Shards)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is(err, sentinel) = false; aggregate must unwrap to per-shard errors")
	}
}

// TestCommitAggregatesEveryFailure checks a multi-shard failure names
// every failing shard, in shard order, and a ranged commit attempts
// every owning shard despite an early failure.
func TestCommitAggregatesEveryFailure(t *testing.T) {
	subs := make([]nas.Client, 4)
	fakes := make([]*fakeSub, 4)
	for i := range subs {
		fakes[i] = &fakeSub{shard: i, size: 1024}
		if i == 0 || i == 2 {
			subs[i] = &failingCommitSub{fakeSub: fakes[i], err: fmt.Errorf("shard %d down", i)}
		} else {
			subs[i] = fakes[i]
		}
	}
	c := NewClient(Layout{Shards: 4, Unit: 16}, subs)

	var err error
	s := sim.New()
	defer s.Close()
	s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "f")
		// Units 0..3 — one span per shard, shards 0 and 2 failing.
		err = c.Commit(p, h, 0, 64)
	})
	s.Run()

	for i, f := range fakes {
		if len(f.commits) != 1 {
			t.Errorf("shard %d saw %d commits, want 1", i, len(f.commits))
		}
	}
	var agg *CommitError
	if !errors.As(err, &agg) {
		t.Fatalf("Commit error = %v (%T), want *CommitError", err, err)
	}
	if len(agg.Shards) != 2 || agg.Shards[0] != 0 || agg.Shards[1] != 2 {
		t.Errorf("CommitError.Shards = %v, want [0 2]", agg.Shards)
	}
	if len(agg.Errs) != len(agg.Shards) {
		t.Errorf("CommitError pairs broken: %d shards, %d errors", len(agg.Shards), len(agg.Errs))
	}
}
