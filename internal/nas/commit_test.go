package nas

import (
	"reflect"
	"testing"
)

// TestCommitTrackerRangeScope checks a range commit discharges only the
// pending writes it actually covered: an uncommitted range outside the
// committed span must stay pending, so a later crash that loses it is
// still detected by its own commit.
func TestCommitTrackerRangeScope(t *testing.T) {
	var tr CommitTracker
	tr.NoteUnstable(1, 0, 64, 5)    // range A, inside the commit
	tr.NoteUnstable(1, 1024, 64, 5) // range B, outside
	tr.NoteUnstable(1, 32, 64, 5)   // range C, straddles the commit end
	if lost := tr.NoteCommit(1, 0, 64, 5, tr.Snapshot()); lost != nil {
		t.Fatalf("matching verifier reported lost ranges %v", lost)
	}
	if got := tr.Pending(1); got != 2 {
		t.Fatalf("range commit left %d pending, want 2 (B and the straddler)", got)
	}
	// The shard crashes (verifier 5 -> 6): B and C were never durably
	// committed and must surface as lost at the next whole-file commit.
	lost := tr.NoteCommit(1, 0, 0, 6, tr.Snapshot())
	want := []WriteRange{{Off: 1024, N: 64}, {Off: 32, N: 64}}
	if !reflect.DeepEqual(lost, want) {
		t.Fatalf("post-crash commit lost %v, want %v", lost, want)
	}
	if tr.VerifierMismatches() != 1 || tr.RewrittenRanges() != 2 {
		t.Fatalf("Mismatches/Rewrites = %d/%d, want 1/2", tr.VerifierMismatches(), tr.RewrittenRanges())
	}
	if tr.Pending(1) != 0 {
		t.Fatalf("whole-file commit left %d pending", tr.Pending(1))
	}
}

// TestResolveCommitRequeuesFailedRewrites checks recovery is never
// silently abandoned: when a lost range's stable re-issue fails, the
// unrecovered ranges re-enter the tracker so the application's retried
// commit surfaces them again.
func TestResolveCommitRequeuesFailedRewrites(t *testing.T) {
	var tr CommitTracker
	tr.NoteUnstable(1, 0, 64, 5)
	tr.NoteUnstable(1, 64, 64, 5)
	tr.NoteUnstable(1, 128, 64, 5)
	// Verifier rolled 5 -> 6: all three are lost. The second re-issue
	// fails (the server crashed again mid-recovery).
	calls := 0
	err := tr.ResolveCommit(1, 0, 0, 6, tr.Snapshot(), func(r WriteRange) error {
		calls++
		if calls == 2 {
			return ErrTimeout
		}
		return nil
	})
	if err == nil {
		t.Fatal("ResolveCommit swallowed the re-issue failure")
	}
	if calls != 2 {
		t.Fatalf("rewrite ran %d times, want 2 (stop at first failure)", calls)
	}
	if got := tr.Pending(1); got != 2 {
		t.Fatalf("Pending = %d after failed re-issue, want the 2 unrecovered ranges", got)
	}
	// The retried commit (server healthy, verifier still 6) finds the
	// requeued ranges lost again — verifier 0 matches no live server —
	// and this time recovers them.
	var recovered []WriteRange
	if err := tr.ResolveCommit(1, 0, 0, 6, tr.Snapshot(), func(r WriteRange) error {
		recovered = append(recovered, r)
		return nil
	}); err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	want := []WriteRange{{Off: 64, N: 64}, {Off: 128, N: 64}}
	if !reflect.DeepEqual(recovered, want) {
		t.Fatalf("retried commit recovered %v, want %v", recovered, want)
	}
	if tr.Pending(1) != 0 {
		t.Fatalf("Pending = %d after full recovery, want 0", tr.Pending(1))
	}
}

// TestCommitTrackerVerifierZeroUntracked checks servers without
// write-behind (verifier zero) never populate the tracker.
func TestCommitTrackerVerifierZeroUntracked(t *testing.T) {
	var tr CommitTracker
	tr.NoteUnstable(1, 0, 64, 0)
	if tr.Pending(1) != 0 {
		t.Fatal("verifier-zero write was tracked")
	}
	if lost := tr.NoteCommit(1, 0, 0, 0, tr.Snapshot()); lost != nil || tr.VerifierMismatches() != 0 {
		t.Fatalf("commit against untracked handle: lost=%v mismatches=%d", lost, tr.VerifierMismatches())
	}
}

// TestCommitSnapshotExcludesInFlightWrites is the pipelining race
// regression: a write whose reply lands while a commit is in flight
// executed after the server's destage snapshot, so the commit's reply
// must not discharge it — otherwise a crash before the next commit
// loses it with no mismatch ever detected.
func TestCommitSnapshotExcludesInFlightWrites(t *testing.T) {
	var tr CommitTracker
	tr.NoteUnstable(1, 0, 64, 5)  // W1, before the commit is issued
	upTo := tr.Snapshot()         // commit goes on the wire here
	tr.NoteUnstable(1, 64, 64, 5) // W2 completes while the commit is in flight
	if lost := tr.NoteCommit(1, 0, 0, 5, upTo); lost != nil {
		t.Fatalf("matching verifier reported lost ranges %v", lost)
	}
	if got := tr.Pending(1); got != 1 {
		t.Fatalf("commit discharged the in-flight write: Pending = %d, want 1", got)
	}
	// Crash (verifier 5 -> 6): the next commit must surface W2 as lost.
	lost := tr.NoteCommit(1, 0, 0, 6, tr.Snapshot())
	if len(lost) != 1 || lost[0] != (WriteRange{Off: 64, N: 64}) {
		t.Fatalf("post-crash commit lost %v, want W2 only", lost)
	}
}
