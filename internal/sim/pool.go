package sim

import "sync/atomic"

// Pool is a free list of records of type T. The zero value is empty.
// A pool reached through a PoolKey belongs to one simulation: every
// component of it that recycles T records draws on the one list, so the
// list holds about as many records as the simulation ever has in use at
// once, where a list per component would hold the sum of each
// component's own high water.
type Pool[T any] struct{ free []*T }

// Get returns a free record, or a new zero one. A recycled record holds
// what its last user left in it.
func (p *Pool[T]) Get() *T {
	k := len(p.free)
	if k == 0 {
		return new(T)
	}
	r := p.free[k-1]
	p.free = p.free[:k-1]
	return r
}

// Copy returns a free record holding a copy of *v.
func (p *Pool[T]) Copy(v *T) *T {
	r := p.Get()
	*r = *v
	return r
}

// Put returns r to the list as it is.
func (p *Pool[T]) Put(r *T) { p.free = append(p.free, r) }

// Release clears r and returns it to the list, so the list keeps
// nothing r pointed at alive.
func (p *Pool[T]) Release(r *T) {
	var zero T
	*r = zero
	p.free = append(p.free, r)
}

// PoolKey names a Pool of T records that each scheduler holds one of:
// a package declares its key once, and its components reach their
// simulation's pool through the scheduler they are built on, without
// threading the pool through their constructors.
type PoolKey[T any] struct{ id int }

var poolKeys atomic.Int64

// NewPoolKey returns a key no other call returns; declare it in a
// package-level variable.
func NewPoolKey[T any]() PoolKey[T] { return PoolKey[T]{id: int(poolKeys.Add(1) - 1)} }

// Of returns s's pool under k, empty on first use.
func (k PoolKey[T]) Of(s *Scheduler) *Pool[T] {
	if k.id >= len(s.pools) {
		s.pools = append(s.pools, make([]any, k.id+1-len(s.pools))...)
	}
	p, _ := s.pools[k.id].(*Pool[T])
	if p == nil {
		p = new(Pool[T])
		s.pools[k.id] = p
	}
	return p
}
