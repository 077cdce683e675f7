package fsim

import (
	"container/list"
	"fmt"
	"reflect"
	"testing"

	"danas/internal/sim"
)

// lruKeys walks the cache's LRU list from the most to the least
// recently used block, checking each back link, and returns the keys.
func (c *ServerCache) lruKeys(t *testing.T) []BlockKey {
	t.Helper()
	var keys []BlockKey
	for b := c.lru.next; b != &c.lru; b = b.next {
		if b.next.prev != b {
			t.Fatalf("LRU list broken after block %+v", b.Key)
		}
		if c.blocks[b.Key] != b {
			t.Fatalf("LRU block %+v is not the resident one", b.Key)
		}
		keys = append(keys, b.Key)
	}
	if len(keys) != len(c.blocks) {
		t.Fatalf("LRU list holds %d blocks, the index %d", len(keys), len(c.blocks))
	}
	return keys
}

// lruOp is one step of an LRU test: touch a block (a hit moves it to
// the front, a miss inserts it) or mark it dirty or clean.
type lruOp struct {
	kind  byte // 't' touch, 'd' dirty, 'c' clean
	block int
}

// applyLRU runs op on c, the block index scaled to f's block size.
func applyLRU(c *ServerCache, f *File, op lruOp) {
	off := int64(op.block) * c.blockSize
	switch op.kind {
	case 't':
		if b, key, l := c.lookup(f, off); b == nil {
			c.insert(key, l)
		}
	case 'd':
		c.MarkDirty(f, off)
	case 'c':
		key, _ := c.align(f, off)
		c.MarkClean(key)
	}
}

// TestServerCacheEvictionOrder pins the LRU's eviction order: a hit
// refreshes a block, an insert beyond capacity evicts from the least
// recently used end, dirty blocks are skipped, and with every older
// block dirty the hunt reaches the new block itself.
func TestServerCacheEvictionOrder(t *testing.T) {
	touch := func(b int) lruOp { return lruOp{'t', b} }
	dirty := func(b int) lruOp { return lruOp{'d', b} }
	clean := func(b int) lruOp { return lruOp{'c', b} }
	for _, tc := range []struct {
		name    string
		ops     []lruOp
		evicted []int // in eviction order
		lru     []int // MRU first
	}{
		{"least recently used goes first",
			[]lruOp{touch(0), touch(1), touch(2), touch(0), touch(3), touch(4)},
			[]int{1, 2}, []int{4, 3, 0}},
		{"dirty LRU block skipped",
			[]lruOp{touch(0), touch(1), touch(2), dirty(0), touch(3), touch(4)},
			[]int{1, 2}, []int{4, 3, 0}},
		{"every older block dirty: the new block goes",
			[]lruOp{touch(0), touch(1), touch(2), dirty(0), dirty(1), dirty(2), touch(3)},
			[]int{3}, []int{2, 1, 0}},
		{"a cleaned block is evictable again",
			[]lruOp{touch(0), touch(1), touch(2), dirty(0), dirty(1), touch(3), clean(0), touch(4)},
			[]int{2, 0}, []int{4, 3, 1}},
		{"a hit on a dirty block refreshes it",
			[]lruOp{touch(0), touch(1), touch(2), dirty(1), touch(1), touch(3), touch(4), touch(5)},
			[]int{0, 2, 3}, []int{5, 4, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, fs, c := newCacheRig(t, 4096, 3)
			f, _ := fs.Create("a", 16*4096)
			var evicted []int
			c.OnEvict = func(b *CacheBlock) { evicted = append(evicted, int(b.Key.Off/4096)) }
			for _, op := range tc.ops {
				applyLRU(c, f, op)
			}
			var lru []int
			for _, k := range c.lruKeys(t) {
				lru = append(lru, int(k.Off/4096))
			}
			if !reflect.DeepEqual(evicted, tc.evicted) || !reflect.DeepEqual(lru, tc.lru) {
				t.Fatalf("evicted %v, LRU %v; want %v and %v", evicted, lru, tc.evicted, tc.lru)
			}
		})
	}
}

// listLRU is the cache's former LRU over container/list: the reference
// the intrusive list must match, eviction for eviction.
type listLRU struct {
	capacity int
	l        *list.List // of block numbers, MRU first
	at       map[int]*list.Element
	dirty    map[int]bool
	evicted  []int
}

func (r *listLRU) apply(op lruOp) {
	switch op.kind {
	case 't':
		if e, ok := r.at[op.block]; ok {
			r.l.MoveToFront(e)
			return
		}
		r.at[op.block] = r.l.PushFront(op.block)
		for e := r.l.Back(); len(r.at) > r.capacity && e != nil; {
			victim := e.Value.(int)
			e = e.Prev()
			if r.dirty[victim] {
				continue
			}
			r.l.Remove(r.at[victim])
			delete(r.at, victim)
			r.evicted = append(r.evicted, victim)
		}
	case 'd':
		if _, ok := r.at[op.block]; ok {
			r.dirty[op.block] = true
		}
	case 'c':
		delete(r.dirty, op.block)
	}
}

func (r *listLRU) order() []int {
	var o []int
	for e := r.l.Front(); e != nil; e = e.Next() {
		o = append(o, e.Value.(int))
	}
	return o
}

// TestServerCacheLRUMatchesListOrder drives the cache and the former
// container/list LRU with the same seeded touches, dirty marks and
// cleans, and checks every eviction and the whole list order after
// every step.
func TestServerCacheLRUMatchesListOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			const blocks, capacity = 24, 8
			_, fs, c := newCacheRig(t, 4096, capacity)
			f, _ := fs.Create("a", blocks*4096)
			var evicted []int
			c.OnEvict = func(b *CacheBlock) { evicted = append(evicted, int(b.Key.Off/4096)) }
			ref := &listLRU{capacity: capacity, l: list.New(), at: map[int]*list.Element{}, dirty: map[int]bool{}}
			rng := sim.NewRand(seed)
			for step := 0; step < 2000; step++ {
				op := lruOp{'t', rng.Intn(blocks)}
				switch x := rng.Intn(10); {
				case x == 0:
					op.kind = 'd'
				case x <= 2:
					op.kind = 'c'
				}
				applyLRU(c, f, op)
				ref.apply(op)
				var got []int
				for _, k := range c.lruKeys(t) {
					got = append(got, int(k.Off/4096))
				}
				if !reflect.DeepEqual(got, ref.order()) || !reflect.DeepEqual(evicted, ref.evicted) {
					t.Fatalf("step %d (%c %d): LRU %v evicted %v, container/list %v evicted %v",
						step, op.kind, op.block, got, evicted, ref.order(), ref.evicted)
				}
			}
		})
	}
}
