package sim

import "fmt"

// Resource is a counted resource with FIFO admission: a CPU, a DMA engine,
// a link direction, a pool of pinned pages. Acquire blocks the calling
// process until the requested units are available; requests are granted
// strictly in arrival order (no overtaking, even if a later, smaller request
// would fit).
//
// Resource integrates units-in-use over time so callers can report
// utilization, the quantity Figure 4 of the paper plots.
type Resource struct {
	s        *Scheduler
	name     string
	capacity int64
	inUse    int64
	waiters  Ring[resWaiter]

	// Utilization accounting.
	epoch      Time    // start of the current measurement interval
	lastChange Time    // last time inUse changed
	busyInt    float64 // integral of inUse over time since epoch, unit·ns
	grants     uint64
}

// resWaiter is a queued request: n units for w, a blocked process or
// the callback of a caller with none.
type resWaiter struct {
	w waiter
	n int64
}

// NewResource creates a resource with the given capacity (units).
func NewResource(s *Scheduler, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{s: s, name: name, capacity: capacity, epoch: s.now, lastChange: s.now}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total units.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns the units currently held.
func (r *Resource) InUse() int64 { return r.inUse }

// QueueLen returns the number of blocked acquirers.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

func (r *Resource) account() {
	now := r.s.now
	r.busyInt += float64(r.inUse) * float64(now-r.lastChange)
	r.lastChange = now
}

// Acquire obtains n units, blocking p until they are granted.
func (r *Resource) Acquire(p *Proc, n int64) {
	if !r.acquire(n, waiter{p: p}) {
		p.block()
	}
}

// AcquireOr is the callback twin of Acquire, for a caller with no
// process: it reports true if the n units were granted at once, and the
// caller carries on itself. Otherwise it queues k in line with blocked
// processes and reports false; k runs, holding the units, through a
// same-instant event at the grant, where a blocked process would have
// been woken.
func (r *Resource) AcquireOr(n int64, k func()) bool {
	return r.acquire(n, waiter{fn: k})
}

// acquire grants n units at once and reports true, or queues w for
// them and reports false.
func (r *Resource) acquire(n int64, w waiter) bool {
	if n <= 0 {
		return true
	}
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d of %s", n, r.capacity, r.name))
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.account()
		r.inUse += n
		r.grants++
		return true
	}
	r.waiters.Push(resWaiter{w: w, n: n})
	return false
}

// Release returns n units and admits as many queued requests as now fit,
// in FIFO order.
func (r *Resource) Release(n int64) {
	if n <= 0 {
		return
	}
	if n > r.inUse {
		panic(fmt.Sprintf("sim: release %d exceeds in-use %d of %s", n, r.inUse, r.name))
	}
	r.account()
	r.inUse -= n
	for r.waiters.Len() > 0 {
		w := r.waiters.Front()
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters.Pop()
		r.inUse += w.n
		r.grants++
		r.s.resume(w.w)
	}
}

// Use acquires one unit, holds it for d, and releases it: the basic
// "serve me for d" operation used to charge CPU or device time.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p, 1)
	p.Sleep(d)
	r.Release(1)
}

// UseN acquires n units for d.
func (r *Resource) UseN(p *Proc, n int64, d Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// Utilization returns mean units-in-use divided by capacity since the last
// MarkEpoch (or creation). This is the quantity plotted in Figure 4.
func (r *Resource) Utilization() float64 {
	r.account()
	elapsed := float64(r.s.now - r.epoch)
	if elapsed <= 0 {
		return 0
	}
	return r.busyInt / (elapsed * float64(r.capacity))
}

// BusyTime returns the integral of units-in-use (unit·ns) since the last
// MarkEpoch. With capacity 1 this is simply busy nanoseconds.
func (r *Resource) BusyTime() Duration {
	r.account()
	return Duration(r.busyInt)
}

// MarkEpoch zeroes the utilization integral; subsequent Utilization and
// BusyTime calls measure from this instant.
func (r *Resource) MarkEpoch() {
	r.account()
	r.busyInt = 0
	r.epoch = r.s.now
	r.lastChange = r.s.now
}

// Grants returns how many acquisitions have been granted.
func (r *Resource) Grants() uint64 { return r.grants }
