package nas

import (
	"sort"

	"danas/internal/sim"
)

// WriteRange is one uncommitted unstable write: the byte range a client
// must re-issue if the server's write verifier changes before the range
// is committed.
type WriteRange struct {
	Off, N int64
}

// CommitTracker is the client-side half of the NFSv3-style commit
// protocol, shared by the NFS and DAFS client stacks: it remembers, per
// file handle, every unstable write that has not yet been committed,
// together with the server write verifier in force when the write was
// accepted. At commit time, ranges whose verifier no longer matches the
// server's were accepted into volatile memory by an incarnation of the
// server that has since crashed — the data is gone, and the tracker
// hands the ranges back for the client to re-issue.
//
// Servers without write-behind report verifier zero; the tracker stays
// empty against them, so the pre-commit protocol is unaffected.
//
// The NFS and DAFS clients embed one, so its failover methods
// (nas.FailoverSession) and counters are theirs.
type CommitTracker struct {
	pending    map[uint64][]verRange
	seq        uint64
	mismatches uint64
	rewrites   uint64
}

type verRange struct {
	off, n   int64
	verifier uint64
	seq      uint64
}

// NoteUnstable records an accepted unstable write under the verifier the
// server's reply carried. Verifier zero (no write-behind) is not
// tracked: such a server never holds the data in volatile state.
func (t *CommitTracker) NoteUnstable(fh uint64, off, n int64, verifier uint64) {
	if verifier == 0 || n <= 0 {
		return
	}
	if t.pending == nil {
		t.pending = make(map[uint64][]verRange)
	}
	t.seq++
	t.pending[fh] = append(t.pending[fh], verRange{off: off, n: n, verifier: verifier, seq: t.seq})
}

// Snapshot returns a token delimiting the writes recorded so far. A
// commit may only discharge ranges recorded before it was issued — a
// write whose reply lands while the commit is in flight executed after
// the server's destage snapshot, so the commit vouches nothing for it —
// and the caller marks that boundary by snapshotting before sending the
// commit.
func (t *CommitTracker) Snapshot() uint64 { return t.seq }

// NoteCommit resolves the handle's pending writes covered by a commit
// of [off, off+n) — n <= 0 is a whole-file commit — against the
// verifier the commit reply carried: covered ranges written under a
// different verifier were lost to a crash and are returned for
// re-issue; covered ranges under the matching verifier are durably on
// disk and forgotten. A pending range not fully contained in the
// committed span, or recorded after the upTo snapshot (the commit was
// already in flight, so the server's destage never saw the write),
// stays pending — discharging it would let a later crash lose it
// silently.
func (t *CommitTracker) NoteCommit(fh uint64, off, n int64, verifier, upTo uint64) []WriteRange {
	ranges := t.pending[fh]
	if len(ranges) == 0 {
		return nil
	}
	covered := func(r verRange) bool {
		if r.seq > upTo {
			return false
		}
		if n <= 0 {
			return true
		}
		return r.off >= off && r.off+r.n <= off+n
	}
	var lost []WriteRange
	kept := ranges[:0]
	for _, r := range ranges {
		switch {
		case !covered(r):
			kept = append(kept, r)
		case r.verifier != verifier:
			lost = append(lost, WriteRange{Off: r.off, N: r.n})
		}
	}
	if len(kept) == 0 {
		delete(t.pending, fh)
	} else {
		t.pending[fh] = kept
	}
	if len(lost) > 0 {
		t.mismatches++
		t.rewrites += uint64(len(lost))
	}
	return lost
}

// VerifierMismatches reports commits that detected a changed verifier
// (a server restart); RewrittenRanges reports the ranges handed back
// for re-issue because of them.
func (t *CommitTracker) VerifierMismatches() uint64 { return t.mismatches }
func (t *CommitTracker) RewrittenRanges() uint64    { return t.rewrites }

// Pending returns the number of uncommitted unstable ranges recorded for
// the handle.
func (t *CommitTracker) Pending(fh uint64) int { return len(t.pending[fh]) }

// PendingRange is one uncommitted unstable range together with the file
// handle it belongs to — the unit of work client failover re-issues on
// a surviving replica.
type PendingRange struct {
	FH uint64
	WriteRange
}

// TakeUncommitted removes and returns every pending unstable range in
// the order the writes were recorded (the tracker's sequence numbers
// give a deterministic total order — never the map's iteration order,
// which would perturb simulation determinism). Failover uses it to drain
// a dead session's obligations and re-issue them elsewhere.
func (t *CommitTracker) TakeUncommitted() []PendingRange {
	type seqRange struct {
		pr  PendingRange
		seq uint64
	}
	var all []seqRange
	for fh, ranges := range t.pending {
		for _, r := range ranges {
			all = append(all, seqRange{
				pr:  PendingRange{FH: fh, WriteRange: WriteRange{Off: r.off, N: r.n}},
				seq: r.seq,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	t.pending = nil
	out := make([]PendingRange, len(all))
	for i, sr := range all {
		out[i] = sr.pr
	}
	return out
}

// HasUncommitted reports whether the tracker holds a pending unstable
// range exactly covering r for the handle — meaning this session's copy
// acknowledged the same write, so a failover onto it need not re-issue
// the range.
func (t *CommitTracker) HasUncommitted(fh uint64, r WriteRange) bool {
	for _, pr := range t.pending[fh] {
		if pr.off == r.Off && pr.n == r.N {
			return true
		}
	}
	return false
}

// Requeue re-tracks a range under the never-matching verifier zero (see
// requeue): failover uses it when a re-issue onto the new serving copy
// fails, so the obligation survives into the next commit instead of
// being silently dropped.
func (t *CommitTracker) Requeue(fh uint64, r WriteRange) { t.requeue(fh, r) }

// FailoverSession is the contract a protocol session offers client
// failover: enough of the commit tracker to drain a dead session's
// uncommitted obligations (TakeUncommitted), check whether a surviving
// copy already acknowledged the same range (HasUncommitted), re-issue a
// range stably (WriteStable), and re-track a range whose re-issue
// failed (Requeue). The NFS and DAFS client stacks both satisfy it
// through their embedded CommitTracker.
type FailoverSession interface {
	TakeUncommitted() []PendingRange
	HasUncommitted(fh uint64, r WriteRange) bool
	Requeue(fh uint64, r WriteRange)
	WriteStable(p *sim.Proc, h *Handle, off, n int64, bufID uint64) (int64, error)
}

// CommitBufID identifies the scratch buffer lost-write re-issues use,
// shared by the protocol stacks: its own identity, so a re-issue never
// aliases — or perturbs the cached registration of — an application
// buffer.
const CommitBufID = 1<<63 - 2

// ResolveCommit is the client half of the commit protocol, shared by
// the NFS and DAFS stacks: it resolves a commit reply's verifier
// against the tracker — discharging only writes recorded before the
// upTo snapshot the caller took when issuing the commit — and re-issues
// each lost range through rewrite (a stable write). If a re-issue
// fails, the not-yet-recovered ranges re-enter the tracker under a
// verifier no live server reports, so a retried commit finds them again
// and recovery is never silently abandoned.
func (t *CommitTracker) ResolveCommit(fh uint64, off, n int64, verifier, upTo uint64, rewrite func(WriteRange) error) error {
	lost := t.NoteCommit(fh, off, n, verifier, upTo)
	for i, r := range lost {
		if err := rewrite(r); err != nil {
			for _, rem := range lost[i:] {
				t.requeue(fh, rem)
			}
			return err
		}
	}
	return nil
}

// requeue re-tracks a lost range whose re-issue failed. Verifier zero
// can never match a write-behind server's reply (verifiers start at 1),
// so the range is guaranteed to surface as lost again at the next
// commit; against a server without write-behind (reply verifier zero)
// nothing is ever volatile and the entry resolves silently.
func (t *CommitTracker) requeue(fh uint64, r WriteRange) {
	if t.pending == nil {
		t.pending = make(map[uint64][]verRange)
	}
	t.seq++
	t.pending[fh] = append(t.pending[fh], verRange{off: r.Off, n: r.N, verifier: 0, seq: t.seq})
}
