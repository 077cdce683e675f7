package host

import (
	"errors"
	"fmt"

	"danas/internal/sim"
)

// ErrPinLimit is returned when registering a buffer would exceed the
// process pinned-page limit — the failure mode §3 of the paper warns
// about for kernel clients registering user buffers on the fly.
var ErrPinLimit = errors.New("host: pinned page limit exceeded")

// Registration is a pinned, NIC-visible buffer. The VM owns the record:
// Register takes it from the VM's free list and Unregister puts it back,
// so a Registration is valid only until it is unregistered.
type Registration struct {
	ID    int64
	Bytes int64
	pages int64
	vm    *VM
	freed bool
}

// VM tracks DMA registrations and pinned-page accounting for one host.
type VM struct {
	h       *Host
	nextID  int64
	pinned  int64 // pages currently pinned
	regs    map[int64]*Registration
	free    []*Registration // unregistered records, for reuse
	maxPins int64           // high-water mark, for reporting
}

func newVM(h *Host) *VM {
	return &VM{h: h, regs: make(map[int64]*Registration)}
}

// PinnedPages returns the pages currently pinned.
func (vm *VM) PinnedPages() int64 { return vm.pinned }

// MaxPinnedPages returns the high-water mark of pinned pages.
func (vm *VM) MaxPinnedPages() int64 { return vm.maxPins }

// RegisterCost returns the CPU cost of registering n bytes.
func (vm *VM) RegisterCost(n int64) sim.Duration {
	return sim.Duration(Pages(n)) * vm.h.P.PageRegister
}

// Register pins and registers an n-byte buffer with the NIC, charging the
// per-page cost to the CPU. It fails with ErrPinLimit if the process
// pinned-page limit would be exceeded (no CPU time is charged then).
func (vm *VM) Register(p *sim.Proc, n int64) (*Registration, error) {
	j := Carried(vm.h, p)
	var m Pin
	vm.RegisterThen(&j, &m, n)
	return m.Reg, m.Err
}

// Unregister releases the registration, charging the per-page cost,
// and recycles its record once the charge is paid. Unregistering twice
// while the record is not yet reused panics: it indicates a protocol
// bug.
func (vm *VM) Unregister(p *sim.Proc, r *Registration) {
	j := Carried(vm.h, p)
	var m Pin
	vm.UnregisterThen(&j, &m, r)
}

// Pin is a Register or an Unregister run as a step machine over a Job:
// the registration and the charge it waits on. A caller keeps one and
// reuses it.
type Pin struct {
	vm      *VM
	n       int64
	pages   int64
	unpin   *Registration // the registration an Unregister releases
	pending bool          // charged, not yet booked
	// Reg and Err are a finished Register's registration and failure.
	Reg *Registration
	Err error
}

// RegisterThen is Register as a step machine over j: it reports true
// once m.Reg or m.Err holds the outcome; otherwise j waits on the
// charge, and j.Step must call m.Step.
func (vm *VM) RegisterThen(j *Job, m *Pin, n int64) bool {
	pages := Pages(n)
	if lim := vm.h.P.PinnedPageLimit; lim > 0 && vm.pinned+pages > lim {
		*m = Pin{Err: fmt.Errorf("%w: want %d pages, %d pinned, limit %d",
			ErrPinLimit, pages, vm.pinned, lim)}
		return true
	}
	*m = Pin{vm: vm, n: n, pages: pages, pending: true}
	if !j.Compute(sim.Duration(pages) * vm.h.P.PageRegister) {
		return false
	}
	return m.Step(j)
}

// UnregisterThen is Unregister as a step machine over j, as
// RegisterThen.
func (vm *VM) UnregisterThen(j *Job, m *Pin, r *Registration) bool {
	if r.freed {
		panic("host: double unregister")
	}
	r.freed = true
	*m = Pin{vm: vm, unpin: r, pending: true}
	if !j.Compute(sim.Duration(r.pages) * vm.h.P.PageUnregister) {
		return false
	}
	return m.Step(j)
}

// Step finishes the registration or release once its charge is paid;
// once finished, it does nothing.
func (m *Pin) Step(*Job) bool {
	if !m.pending {
		return true
	}
	m.pending = false
	vm := m.vm
	if r := m.unpin; r != nil {
		vm.pinned -= r.pages
		delete(vm.regs, r.ID)
		vm.free = append(vm.free, r)
		return true
	}
	vm.nextID++
	var r *Registration
	if k := len(vm.free); k > 0 {
		r = vm.free[k-1]
		vm.free = vm.free[:k-1]
	} else {
		r = new(Registration)
	}
	*r = Registration{ID: vm.nextID, Bytes: m.n, pages: m.pages, vm: vm}
	vm.regs[r.ID] = r
	vm.pinned += m.pages
	if vm.pinned > vm.maxPins {
		vm.maxPins = vm.pinned
	}
	m.Reg = r
	return true
}

// Registrations returns the number of live registrations.
func (vm *VM) Registrations() int { return len(vm.regs) }
