// Package host models an end-system: a single-CPU machine with an
// operating system whose costs (copies, interrupts, scheduling, syscalls,
// page registration) are charged against the CPU in simulated time.
//
// The paper's overhead equation o(m) = m*o_perbyte + o_perIO (§2.2) is
// realized here: per-byte work goes through Copy/CacheCopy, per-I/O work
// through Compute/Interrupt/Syscall.
package host

import (
	"fmt"

	"danas/internal/obs"
	"danas/internal/sim"
)

// Host is one machine in the cluster.
type Host struct {
	Name string
	S    *sim.Scheduler
	P    *Params
	// CPU is the single processor, shared by application, kernel and
	// interrupt work (the testbed was uniprocessor).
	CPU *sim.Station
	// VM tracks page registration and pinning for DMA.
	VM *VM
	// CPUPhase is the span phase this machine's CPU time attributes
	// to; the zero value is obs.PhaseClient, so only server machines
	// need marking (the cluster builder sets obs.PhaseServer).
	CPUPhase obs.Phase

	intrPending int // received packets since last interrupt (coalescing)
}

// New creates a host with the given parameter table.
func New(s *sim.Scheduler, name string, p *Params) *Host {
	h := &Host{
		Name: name,
		S:    s,
		P:    p,
		CPU:  sim.NewStation(s, name+"/cpu"),
	}
	h.VM = newVM(h)
	return h
}

// Compute has the CPU perform d of work for p and returns when it is
// done. Like Station.Wait, p blocks only if another event is due by
// then; otherwise the clock moves on in place. When p carries an
// active span, the full wall time (queueing behind other jobs included)
// attributes to the host's CPU phase — honest attribution: a saturated
// server CPU shows up as server time, not as unexplained residue.
func (h *Host) Compute(p *sim.Proc, d sim.Duration) { h.compute(p, obs.Active(p), d) }

// compute is Compute with p's active span sp.
func (h *Host) compute(p *sim.Proc, sp *obs.Span, d sim.Duration) {
	if sp == nil {
		h.CPU.Wait(p, d)
		return
	}
	t0 := p.Now()
	h.CPU.Wait(p, d)
	sp.Add(h.CPUPhase, p.Now().Sub(t0))
}

// ComputeAsync charges d of CPU work and calls done when it completes,
// without requiring a process context (used by interrupt-driven paths).
func (h *Host) ComputeAsync(d sim.Duration, done func()) {
	h.CPU.Serve(d, done)
}

// ComputeThen charges d of CPU work for a caller with no process, the
// callback twin of Compute (see sim.Station.Then): it reports true if the
// work ran ahead and the caller carries on at its finish, and otherwise
// calls k there. Nothing is attributed to a span.
func (h *Host) ComputeThen(d sim.Duration, k func()) bool {
	return h.CPU.Then(d, k)
}

// CopyCost returns the CPU time of a plain memcpy of n bytes.
func (h *Host) CopyCost(n int64) sim.Duration {
	return sim.TransferTime(n, h.P.MemCopyBW)
}

// Copy has the CPU copy n bytes for p, as Compute.
func (h *Host) Copy(p *sim.Proc, n int64) {
	h.Compute(p, h.CopyCost(n))
}

// CacheCopyCost returns the CPU time of a copy through the kernel buffer
// cache (slower: includes getblk, mapping and bookkeeping).
func (h *Host) CacheCopyCost(n int64) sim.Duration {
	return sim.TransferTime(n, h.P.BufferCacheBW)
}

// Syscall charges one user/kernel crossing.
func (h *Host) Syscall(p *sim.Proc) {
	h.Compute(p, h.P.SyscallCost)
}

// Interrupt models the NIC interrupting the host: the CPU takes the
// interrupt, runs handler work, then done fires. Call from event context.
func (h *Host) Interrupt(handler sim.Duration, done func()) {
	h.CPU.Serve(h.P.InterruptCost+handler, done)
}

// CoalescedInterrupt charges interrupt entry only once per IntrCoalesce
// deliveries, modeling the NIC's interrupt-coalescing window, then runs
// handler work.
func (h *Host) CoalescedInterrupt(handler sim.Duration, done func()) {
	cost := handler
	h.intrPending++
	if h.intrPending >= h.P.IntrCoalesce || h.P.IntrCoalesce <= 1 {
		h.intrPending = 0
		cost += h.P.InterruptCost
	}
	h.CPU.Serve(cost, done)
}

// Wakeup charges the scheduler cost of waking a blocked thread, then fires
// done. Use when a completion must resume a sleeping process through the
// OS scheduler (as opposed to being consumed by polling).
func (h *Host) Wakeup(done func()) {
	h.CPU.Serve(h.P.SchedWakeup, done)
}

// String implements fmt.Stringer.
func (h *Host) String() string { return fmt.Sprintf("host(%s)", h.Name) }

// Job is one thread of control served by callbacks instead of a
// process: the span its charges attribute to, and Step, the callback a
// charge or wait that cannot finish in place calls at its end, where a
// process would have resumed. Its methods are the callback twins of
// Compute and of the other charges and waits a process makes: each
// reports true if it finished in place, the clock now at its end, and
// the caller carries on itself, as a process returning from Compute
// would. Otherwise the caller returns, and Step runs at the end; its
// first act must be Resume, which attributes the wait's wall time to the
// span as Compute does.
//
// A job may instead be carried by a process, P: then each charge or wait
// blocks P, exactly as the process-style call would, and reports true.
// A step machine written over a Job thus runs either way: a blocking
// method drives it from its caller's process, making the kernel calls
// it always made, and an asynchronous caller drives it from callbacks,
// posting the same events at the same (at, seq) places.
type Job struct {
	H *Host
	// S is the scheduler, for a job whose host is not yet known: a
	// layer above the protocol clients (striping, async submission)
	// makes the job, and the client whose step machine charges it sets
	// H.
	S    *sim.Scheduler
	P    *sim.Proc
	Span *obs.Span
	Step func()

	t0   sim.Time  // when the open wait began
	ph   obs.Phase // the phase it attributes to
	open bool

	blocked func(p *sim.Proc) // what Block runs next
	body    func(p *sim.Proc) // j.runBlocked, bound at the first Block
}

// Carried returns a job carried by p, charging on h, with p's active
// span (which p keeps while it carries the job).
func Carried(h *Host, p *sim.Proc) Job {
	return Job{H: h, S: p.Sched(), P: p, Span: obs.Active(p)}
}

// Sched returns the job's scheduler.
func (j *Job) Sched() *sim.Scheduler {
	if j.S != nil {
		return j.S
	}
	return j.H.S
}

// Compute charges d of CPU work, the twin of Host.Compute.
func (j *Job) Compute(d sim.Duration) bool {
	if j.P != nil {
		j.H.compute(j.P, j.Span, d)
		return true
	}
	return j.Then(j.H.CPU, d, j.H.CPUPhase)
}

// Then executes a job of duration d on st, the twin of a process's
// st.Wait bracketed into phase ph (a disk read, say).
func (j *Job) Then(st *sim.Station, d sim.Duration, ph obs.Phase) bool {
	j.Open(ph)
	if j.P != nil {
		st.Wait(j.P, d)
	} else if !st.Then(d, j.Step) {
		return false
	}
	j.Resume()
	return true
}

// Wait waits for g to fire, the twin of g.Wait. A wait the caller opened
// beforehand (Open) ends with it.
func (j *Job) Wait(g *sim.Signal) bool {
	if j.P != nil {
		g.Wait(j.P)
	} else if !g.Then(j.Step) {
		return false
	}
	j.Resume()
	return true
}

// Open starts a wait that attributes to phase ph: one Then opens
// itself, or one the caller arranges to end with a call of Step (an
// RDMA completion, say) or with Wait.
func (j *Job) Open(ph obs.Phase) { j.t0, j.ph, j.open = j.Sched().Now(), ph, true }

// Resume ends the open wait, if any, adding its wall time to the span.
func (j *Job) Resume() {
	if j.open {
		j.open = false
		j.Span.Add(j.ph, j.Sched().Now().Sub(j.t0))
	}
}

// Run runs fn, a step that really blocks (a failover, a write-behind
// drain, an operation with no step machine), on the job's process: P
// if the job has one, and it reports true; otherwise a process Block
// starts in place, and it reports false.
func (j *Job) Run(name string, fn func(p *sim.Proc)) bool {
	if j.P != nil {
		fn(j.P)
		return true
	}
	j.Block(name, fn)
	return false
}

// Block continues the job on a process started in place (see
// sim.Scheduler.Start), for a step that really blocks, such as a
// write-behind drain: the process runs fn with the job's span active,
// then calls Step. The caller returns right after Block, as after a
// charge that did not run ahead.
func (j *Job) Block(name string, fn func(p *sim.Proc)) {
	if j.body == nil {
		j.body = j.runBlocked
	}
	j.blocked = fn
	j.Sched().Start(name, j.body)
}

// runBlocked is the body of a process Block starts. It takes what it
// needs from j before it can first block, since the job may go on to
// its next request while the process waits.
func (j *Job) runBlocked(p *sim.Proc) {
	fn, step := j.blocked, j.Step
	j.blocked = nil
	obs.Activate(p, j.Span)
	fn(p)
	step()
}
