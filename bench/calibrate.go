package main

import "time"

// refSteps is how many steps one reference chunk runs: about 0.2 ms.
const refSteps = 2000

// refNominal is the CPU time of one reference chunk that calibrated
// host times are scaled to: a calibrated second is a second of a
// machine that runs a chunk in refNominal. It is about what the
// ledger's machine takes when nothing else runs on it.
const refNominal = 200 * time.Microsecond

// refKernel is a fixed piece of work timed beside the simulator to
// calibrate its CPU time against the machine's speed at that moment:
// on a shared host, other tenants' work slows memory-heavy code like
// the simulator's by a third or more for tens of seconds at a time, and
// CPU time alone does not see it. Like the simulator's kernel, the
// reference is a priority queue driving scattered reads and writes of
// a table about the size of a core's L2 cache; unlike it, it allocates
// nothing, switches no goroutine and stores no pointer, so neither the
// simulator's heap nor its garbage collector changes the reference's
// cost. It is frozen: changing it changes what every calibrated time
// means.
type refKernel struct {
	heap  []uint64
	table []uint64
	rng   uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{heap: make([]uint64, 4096), table: make([]uint64, 32<<10), rng: 0x9e3779b97f4a7c15}
	for i := range k.heap {
		k.heap[i] = uint64(i)
	}
	return k
}

// chunk runs refSteps steps and returns their CPU time.
func (k *refKernel) chunk() time.Duration {
	t := cpuTime()
	h, tab, x := k.heap, k.table, k.rng
	for s := 0; s < refSteps; s++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for j := uint64(0); j < 4; j++ {
			tab[(x>>(16*j))%uint64(len(tab))] += x
		}
		// Move the earliest key later and sift it down.
		h[0] += 1 + (x+tab[x%uint64(len(tab))])%8192
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	k.rng = x
	return cpuTime() - t
}
