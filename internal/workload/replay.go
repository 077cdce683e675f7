package workload

import (
	"fmt"

	"danas/internal/metrics"
	"danas/internal/nas"
	"danas/internal/obs"
	"danas/internal/sim"
	"danas/internal/trace"
)

// ReplayResult reports one open-loop trace replay.
type ReplayResult struct {
	// Ops, Bytes and Errors cover completed operations.
	Ops    int64
	Bytes  int64
	Errors int64
	// Stalls counts operations whose submission was delayed past their
	// recorded arrival time because the queue was full. A truly
	// open-loop run has zero; a nonzero count means the protocol fell
	// far enough behind to exhaust the queue depth and the remaining
	// issue times are distorted (closed-loop back-pressure).
	Stalls int64
	// MaxOutstanding is the deepest the submission queue actually got,
	// observed at each submission instant.
	MaxOutstanding int
	// Issues[i] is the instant record i was actually submitted; in an
	// open-loop run it equals Start + trace[i].At exactly.
	Issues []sim.Time
	// OpDone[i], OpErr[i] and OpBytes[i] record each trace record's
	// completion instant, error, and bytes moved — the failure
	// experiment slices these into before/during/after-fault windows.
	OpDone  []sim.Time
	OpErr   []error
	OpBytes []int64
	// Start is when the replay clock started; Elapsed spans from Start
	// to the last completion.
	Start   sim.Time
	Elapsed sim.Duration
	// Lat holds per-operation response times measured from each
	// record's scheduled arrival (not its possibly-delayed submission)
	// to its completion, so queueing delay counts — the open-loop
	// convention that avoids coordinated omission.
	Lat metrics.Hist
}

// MBps returns completed-byte throughput over the replay in MB/s (10^6
// bytes per second, the paper's unit).
func (r *ReplayResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// Pool merges the results of clients replaying side by side into one
// fleet result: counts, bytes and stalls sum, latency histograms merge,
// MaxOutstanding is the deepest any one queue got, and the span runs
// from the earliest replay start to the last completion. The
// per-operation records index one client's trace, so a pooled result
// leaves them nil. A single result is returned as is.
func Pool(rs []*ReplayResult) *ReplayResult {
	if len(rs) == 1 {
		return rs[0]
	}
	p := &ReplayResult{}
	var last sim.Time
	for i, r := range rs {
		p.Ops += r.Ops
		p.Bytes += r.Bytes
		p.Errors += r.Errors
		p.Stalls += r.Stalls
		p.MaxOutstanding = max(p.MaxOutstanding, r.MaxOutstanding)
		p.Lat.Merge(&r.Lat)
		if i == 0 || r.Start < p.Start {
			p.Start = r.Start
		}
		last = max(last, r.Start.Add(r.Elapsed))
	}
	p.Elapsed = last.Sub(p.Start)
	return p
}

// Replay drives an open-loop replay of tr over ac: every record is
// submitted at its recorded arrival time regardless of completions —
// a slow protocol accumulates queued operations instead of distorting
// subsequent issue times — while a collector process reaps completions
// and accumulates latency percentiles. Submission only stalls if the
// async client's bounded queue fills (reported via Stalls). Files named
// by the trace must already exist; they are opened before the clock
// starts and closed after the last completion. The returned error is
// the first open failure or per-operation error.
func Replay(p *sim.Proc, ac nas.AsyncClient, tr trace.Trace) (*ReplayResult, error) {
	return ReplayWith(p, ac, tr, nil)
}

// ReplayWith is Replay with a hook that runs at the instant the replay
// clock starts (after the files are opened, before the first record is
// issued) — the failure experiments arm their fault schedules there so
// event offsets are relative to the same origin as the trace's recorded
// arrival times.
func ReplayWith(p *sim.Proc, ac nas.AsyncClient, tr trace.Trace, onStart func(start sim.Time)) (*ReplayResult, error) {
	return ReplayObserved(p, ac, tr, onStart, nil)
}

// ReplayObserved is ReplayWith with per-operation tracing: when rc is
// non-nil every trace record gets a span starting at its scheduled
// arrival, carried through the protocol stack by the async client, and
// finalized (end instant, error flag) as its completion is collected.
// Submission delay past the scheduled arrival — the queue was full —
// is attributed to the span's queue phase. A nil rc is exactly the
// untraced replay: no spans are allocated and no hook fires.
func ReplayObserved(p *sim.Proc, ac nas.AsyncClient, tr trace.Trace, onStart func(start sim.Time), rc *obs.Recorder) (*ReplayResult, error) {
	res := &ReplayResult{
		Issues:  make([]sim.Time, len(tr)),
		OpDone:  make([]sim.Time, len(tr)),
		OpErr:   make([]error, len(tr)),
		OpBytes: make([]int64, len(tr)),
	}
	if len(tr) == 0 {
		return res, nil
	}
	extents := tr.Extents()
	handles := make(map[string]*nas.Handle, len(extents))
	opened := make([]*nas.Handle, 0, len(extents))
	defer func() {
		for _, h := range opened {
			ac.Close(p, h)
		}
	}()
	for _, ext := range extents {
		h, err := ac.Open(p, ext.File)
		if err != nil {
			return res, fmt.Errorf("replay: open %s: %w", ext.File, err)
		}
		handles[ext.File] = h
		opened = append(opened, h)
	}

	start := p.Now()
	res.Start = start
	if onStart != nil {
		onStart(start)
	}
	r := &replay{
		ac: ac, s: p.Sched(), tr: tr, res: res, start: start, rc: rc,
		done: sim.NewSignal(p.Sched()), handles: handles, depth: uint64(ac.Depth()),
		// recIdx maps a submission tag back to its trace record, from
		// which the scheduled arrival (start + record.At) derives. The
		// submitter stores the tag as it issues the record, before any
		// completion can be collected.
		recIdx: make(map[uint64]int, len(tr)),
	}
	if rc != nil {
		r.spans = make([]*obs.Span, len(tr))
	}
	r.collectFn, r.submitFn = r.collect, r.submit
	// The collector and the submitter run by callbacks, the collector
	// from a same-instant event of its own, the submitter from here on;
	// the caller waits once, for the last completion.
	r.s.After(0, r.collectFn)
	r.submit()
	r.done.Wait(p)
	res.Elapsed = r.lastDone.Sub(start)
	return res, r.firstErr
}

// replay is one open-loop replay's submitter and collector, run by
// callbacks: event for event what a submitting process (sleeping until
// each record's arrival, blocking for a queue slot) and a collecting
// process (blocking in Wait) would run.
type replay struct {
	ac      nas.AsyncClient
	s       *sim.Scheduler
	tr      trace.Trace
	res     *ReplayResult
	start   sim.Time
	done    *sim.Signal
	handles map[string]*nas.Handle
	depth   uint64
	rc      *obs.Recorder
	spans   []*obs.Span
	recIdx  map[uint64]int

	next      int       // the next record to submit
	sp        *obs.Span // its span, once it is due
	admitting bool      // it waits for a queue slot
	collected int
	firstErr  error
	lastDone  sim.Time

	collectFn, submitFn func() // r.collect and r.submit, bound once
}

// submit issues every record that is due, in order, and arranges to run
// again at the next record's arrival or when a queue slot frees.
func (r *replay) submit() {
	for r.next < len(r.tr) {
		i, rec := r.next, r.tr[r.next]
		target := r.start.Add(rec.At)
		if !r.admitting {
			if now := r.s.Now(); now < target {
				r.s.After(target.Sub(now), r.submitFn)
				return
			}
			r.sp = nil
			if r.rc != nil {
				r.sp = r.rc.NewSpan(i, rec.Kind.String(), target)
				r.spans[i] = r.sp
			}
			if !r.ac.Admit(r.s, r.submitFn) {
				r.admitting = true
				return
			}
		}
		r.admitting = false
		tag := r.ac.Issue(nas.Op{
			Kind: rec.Kind,
			H:    r.handles[rec.File],
			Off:  rec.Off,
			N:    rec.Size,
			// Cycle through Depth buffer identities, modelling a
			// depth-sized pool of application buffers.
			BufID: 1 + uint64(i)%r.depth,
			Span:  r.sp,
		})
		r.recIdx[tag] = i
		now := r.s.Now()
		r.res.Issues[i] = now
		if now > target {
			r.res.Stalls++
			// The span opens at the scheduled arrival: time lost waiting
			// for a queue slot is the operation's queue phase.
			r.sp.Add(obs.PhaseQueue, now.Sub(target))
		}
		if o := r.ac.Outstanding(); o > r.res.MaxOutstanding {
			r.res.MaxOutstanding = o
		}
		r.next++
	}
}

// collect reaps completions, accumulating latency from each record's
// scheduled arrival, until every record has completed.
func (r *replay) collect() {
	res := r.res
	for r.collected < len(r.tr) {
		comps, ok := r.ac.WaitOr(r.s, r.collectFn)
		if !ok {
			return
		}
		for _, comp := range comps {
			r.collected++
			res.Ops++
			res.Bytes += comp.N
			if comp.Err != nil {
				res.Errors++
				if r.firstErr == nil {
					r.firstErr = comp.Err
				}
			}
			if i, ok := r.recIdx[comp.Tag]; ok {
				res.Lat.Observe(comp.Done.Sub(r.start.Add(r.tr[i].At)))
				res.OpDone[i] = comp.Done
				res.OpErr[i] = comp.Err
				res.OpBytes[i] = comp.N
				if r.spans != nil {
					if sp := r.spans[i]; sp != nil {
						sp.End = comp.Done
						sp.Err = comp.Err != nil
					}
				}
				delete(r.recIdx, comp.Tag)
			}
			if comp.Done > r.lastDone {
				r.lastDone = comp.Done
			}
		}
	}
	r.done.Fire()
}
