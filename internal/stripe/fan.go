package stripe

import (
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/obs"
	"danas/internal/sim"
)

// Fans runs fan-outs for its owner (a Striper or a replica Set) from a
// free list of fan-out records, so a fan-out allocates nothing once its
// owner has run one as wide. The zero value is ready to use.
type Fans struct{ free []*Run }

// Run is one fan-out in progress, a step machine over a host.Job (see
// nas.Task): Step starts it, and reports true once every leg is done;
// otherwise the job waits, and j.Step must call Step again. A fan-out
// of one leg runs it in line on the caller's job, so single-shard paths
// cost exactly what they did unstriped; wider ones run each leg on a
// job of its own, started by a same-instant event, as a process
// spawned there would start, and the caller waits for the last. Legs
// carry the caller's span: each concurrent leg attributes its own
// waiting (phases are additive, so fan-out may sum past wall time).
//
// A leg runs a per-shard task of its Striper (an open, a close, a data
// span) as a step machine, or a process-style step (a commit, an
// extend, a create) on a process of its own (host.Job.Run). The
// caller reads the outcome and then releases the record.
type Run struct {
	fs   *Fans
	st   *Striper // the owner's striping layer; nil for a replica set's
	kind runKind
	name string // a process leg's process name

	fn     func(wp *sim.Proc, i int) error // runProc's step
	spanOp SpanOp                          // runProcSpans' step
	file   string                          // runOpen's name
	h      *nas.Handle
	end    int64  // runExtend's new end of file
	op     nas.Op // runSpans' operation: its kind and buffer
	cur    nas.Op // the operation a span leg's task starts with
	spans  []Span // the legs' shards and ranges
	hs     []*nas.Handle
	got    []int64
	errs   []error
	tasks  []nas.Task
	legs   []*leg

	n, finished int
	started     bool
	done        *sim.Signal
}

type runKind uint8

const (
	runProc      runKind = iota // fn on every leg, on a process each
	runProcSpans                // spanOp on each span, on a process each
	runExtend                   // the extend step on each lagging shard
	runOpen                     // open on every shard, as tasks
	runClose                    // close on every shard, as tasks
	runSpans                    // op on each span, as tasks
)

// leg is one leg of a fan-out: its job (used when the fan-out is wider
// than one), and the body of its process if it runs process-style.
type leg struct {
	j       host.Job
	r       *Run
	i       int
	started bool              // a process leg's process is started
	body    func(p *sim.Proc) // l.runProc, bound once
}

// take returns a fan-out record of kind for n legs.
func (fs *Fans) take(st *Striper, kind runKind, n int) *Run {
	r := fs.record(st, kind)
	r.size(n)
	return r
}

// record returns a fan-out record of kind; size sets its width.
func (fs *Fans) record(st *Striper, kind runKind) *Run {
	var r *Run
	if k := len(fs.free); k > 0 {
		r = fs.free[k-1]
		fs.free = fs.free[:k-1]
	} else {
		r = &Run{fs: fs}
	}
	r.st, r.kind, r.finished, r.started = st, kind, 0, false
	return r
}

// size makes r n legs wide.
func (r *Run) size(n int) {
	r.n = n
	r.errs = append(r.errs[:0], make([]error, n)...)
	r.got = append(r.got[:0], make([]int64, n)...)
	r.tasks = append(r.tasks[:0], make([]nas.Task, n)...)
	for len(r.legs) < n {
		l := &leg{r: r, i: len(r.legs)}
		l.j.Step = l.resume
		l.body = l.runProc
		r.legs = append(r.legs, l)
	}
}

// Release returns a finished fan-out's record to its free list.
func (r *Run) Release() {
	clear(r.errs)
	r.fn, r.spanOp, r.h, r.hs, r.op, r.cur = nil, nil, nil, nil, nas.Op{}, nas.Op{}
	r.fs.free = append(r.fs.free, r)
}

// Step starts or continues the fan-out on j (see Run).
func (r *Run) Step(j *host.Job) bool {
	if r.n == 1 {
		if !r.leg(j, 0) {
			return false
		}
		return r.finish()
	}
	if !r.started {
		r.started = true
		if r.n == 0 {
			return r.finish()
		}
		r.post(j.Sched(), j.H, j.Span)
	}
	if !j.Wait(r.done) {
		return false
	}
	return r.finish()
}

// post starts every leg at the current instant, in leg order.
func (r *Run) post(s *sim.Scheduler, h *host.Host, sp *obs.Span) {
	if r.done == nil {
		r.done = sim.NewSignal(s)
	} else if r.done.Fired() {
		r.done.Reset()
	}
	for _, l := range r.legs[:r.n] {
		l.j.H, l.j.S, l.j.Span = h, s, sp
		s.After(0, l.j.Step)
	}
}

// resume starts or continues leg l, and counts it once it is done.
func (l *leg) resume() {
	l.j.Resume()
	r := l.r
	if !r.leg(&l.j, l.i) {
		return
	}
	r.finished++
	if r.finished == r.n {
		r.done.Fire()
	}
}

// leg starts or continues leg i on j and reports whether it is done.
func (r *Run) leg(j *host.Job, i int) bool {
	if r.kind < runOpen {
		l := r.legs[i]
		if !l.started {
			l.started = true
			if !j.Run(r.name, l.body) {
				return false
			}
		}
		l.started = false
		return true
	}
	t := r.tasks[i]
	if t == nil {
		t = r.st.task(r.shard(i))
		r.tasks[i] = t
		var ok bool
		switch r.kind {
		case runOpen:
			ok = t.Open(j, r.file)
		case runClose:
			h := r.h
			if r.hs != nil {
				h = r.hs[i]
			}
			ok = t.Close(j, h)
		default:
			sp := r.spans[i]
			r.cur = r.op
			r.cur.H, r.cur.Off, r.cur.N = r.st.ShardHandle(r.h, sp.Shard), sp.Off, sp.Len
			ok = nas.RunOp(t, j, &r.cur)
		}
		if !ok {
			return false
		}
	} else if !t.Step(j) {
		return false
	}
	n, h, err := t.Result()
	if r.kind == runOpen {
		r.hs[i] = h
	}
	r.got[i], r.errs[i] = n, err
	r.st.putTask(r.shard(i), t)
	r.tasks[i] = nil
	return true
}

// shard is the shard leg i runs on.
func (r *Run) shard(i int) int {
	if r.kind == runOpen || r.kind == runClose {
		return i
	}
	return r.spans[i].Shard
}

// runProc is the body of a process leg's process.
func (l *leg) runProc(p *sim.Proc) {
	r, i := l.r, l.i
	switch r.kind {
	case runProc:
		r.errs[i] = r.fn(p, i)
	case runProcSpans:
		sp := r.spans[i]
		r.got[i], r.errs[i] = r.spanOp(p, sp.Shard, r.st.ShardHandle(r.h, sp.Shard), sp.Off, sp.Len)
	case runExtend:
		shard := r.spans[i].Shard
		r.errs[i] = r.st.shards.ExtendShard(p, shard, r.st.ShardHandle(r.h, shard), r.end)
	}
}

// finish completes a fan-out whose legs are all done: an open records
// the per-shard handles, an extend the new size.
func (r *Run) finish() bool {
	if r.Err() == nil {
		switch r.kind {
		case runOpen:
			r.st.handles[r.file] = r.hs
		case runExtend:
			r.h.Size = r.end
		}
	}
	return true
}

// Err returns the lowest leg's error.
func (r *Run) Err() error {
	for _, e := range r.errs[:r.n] {
		if e != nil {
			return e
		}
	}
	return nil
}

// Total returns the bytes the legs moved, summed, with the lowest
// leg's error. The sum counts the legs that succeeded too, so a caller
// chooses what a failed operation reports.
func (r *Run) Total() (int64, error) {
	var total int64
	for _, g := range r.got[:r.n] {
		total += g
	}
	return total, r.Err()
}

// Handle returns an open's canonical handle, shard 0's.
func (r *Run) Handle() (*nas.Handle, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	return r.hs[0], nil
}

// drive runs a process-style fan-out from p: one leg in line, wider
// ones on legs of their own while p waits.
func (r *Run) drive(p *sim.Proc) {
	switch r.n {
	case 0:
	case 1:
		r.legs[0].runProc(p)
	default:
		r.post(p.Sched(), nil, obs.Active(p))
		r.done.Wait(p)
	}
	r.finish()
}

// FanOut runs fn for indexes 0..n-1 as concurrent processes and returns
// the lowest-index error. With n <= 1 it runs in line on the caller's
// process. The process-style fan-outs (commits, creates, removes, a
// replica set's namespace fan-out) use it.
func (fs *Fans) FanOut(p *sim.Proc, n int, name string, fn func(wp *sim.Proc, i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return fn(p, 0)
	}
	r := fs.take(nil, runProc, n)
	r.name, r.fn = name, fn
	r.drive(p)
	err := r.Err()
	r.Release()
	return err
}

// Fanning returns a process-style fan-out of fn over n legs, a step
// machine (see Run), for a caller with a job rather than a process.
func (fs *Fans) Fanning(name string, n int, fn func(wp *sim.Proc, i int) error) *Run {
	r := fs.take(nil, runProc, n)
	r.name, r.fn = name, fn
	return r
}
