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
func (h *Host) Compute(p *sim.Proc, d sim.Duration) {
	sp := obs.Active(p)
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
