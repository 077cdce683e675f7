package nic

import (
	"fmt"
	"reflect"
	"testing"

	"danas/internal/host"
	"danas/internal/sim"
)

// refTPT is the former TPT and TLB, each a map keyed by page number: the
// reference the page table must match step for step.
type refTPT struct {
	pages  map[uint64]*refSeg
	nextVA uint64
	tlb    refTLB
}

type refSeg struct {
	va, len int64
	valid   bool
	lock    int
}

func newRefTPT(tlbSize int) *refTPT {
	return &refTPT{
		pages:  map[uint64]*refSeg{},
		nextVA: 1 << 20,
		tlb:    refTLB{size: tlbSize, at: map[uint64]int32{}, ent: make([]tlbEntry, 1)},
	}
}

func (t *refTPT) export(n int64) *refSeg {
	s := &refSeg{va: int64(t.nextVA), len: n, valid: true}
	pages := host.Pages(n)
	for i := int64(0); i < pages; i++ {
		t.pages[pageOf(t.nextVA)+uint64(i)] = s
	}
	t.nextVA += uint64(pages) * host.PageSize
	return s
}

func (t *refTPT) invalidate(s *refSeg) {
	if !s.valid {
		return
	}
	s.valid = false
	for i := int64(0); i < host.Pages(s.len); i++ {
		pg := pageOf(uint64(s.va)) + uint64(i)
		delete(t.pages, pg)
		t.tlb.evict(pg)
	}
}

func (t *refTPT) lookup(va uint64, length int64) (*refSeg, Status) {
	if length <= 0 {
		return nil, StatusBadRequest
	}
	var seg *refSeg
	for pg := pageOf(va); pg <= pageOf(va+uint64(length)-1); pg++ {
		s, ok := t.pages[pg]
		if !ok || (seg != nil && seg != s) {
			return nil, StatusNotExported
		}
		seg = s
	}
	if !seg.valid {
		return nil, StatusNotExported
	}
	if seg.lock > 0 {
		return nil, StatusLocked
	}
	return seg, StatusOK
}

// charge walks [va, va+length) through the TLB, as tlbCharge does, and
// returns its hits and misses.
func (t *refTPT) charge(va uint64, length int64) (hits, misses uint64) {
	for pg := pageOf(va); pg <= pageOf(va+uint64(length)-1); pg++ {
		if t.tlb.touch(pg) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

func (t *refTPT) warm(from uint64) {
	for pg := pageOf(from); pg < pageOf(t.nextVA); pg++ {
		if _, ok := t.pages[pg]; ok {
			t.tlb.touch(pg)
		}
	}
}

// refTLB is the former TLB: the index-linked LRU list with a page map.
type refTLB struct {
	size int
	at   map[uint64]int32
	ent  []tlbEntry
	free []int32
}

func (t *refTLB) touch(pg uint64) bool {
	if i, ok := t.at[pg]; ok {
		t.unlink(i)
		t.pushFront(i)
		return true
	}
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
		t.ent[i].pg = pg
	} else {
		i = int32(len(t.ent))
		t.ent = append(t.ent, tlbEntry{pg: pg})
	}
	t.pushFront(i)
	t.at[pg] = i
	for len(t.at) > t.size {
		t.remove(t.ent[0].prev)
	}
	return false
}

func (t *refTLB) evict(pg uint64) {
	if i, ok := t.at[pg]; ok {
		t.remove(i)
	}
}

func (t *refTLB) pushFront(i int32) {
	first := t.ent[0].next
	t.ent[i].prev, t.ent[i].next = 0, first
	t.ent[first].prev = i
	t.ent[0].next = i
}

func (t *refTLB) unlink(i int32) {
	e := t.ent[i]
	t.ent[e.prev].next = e.next
	t.ent[e.next].prev = e.prev
}

func (t *refTLB) remove(i int32) {
	t.unlink(i)
	delete(t.at, t.ent[i].pg)
	t.free = append(t.free, i)
}

// sameLRU reports whether t and ref hold the same pages in the same
// LRU order.
func sameLRU(t *tlb, ref *refTLB) bool {
	i, j := t.ent[0].next, ref.ent[0].next
	for ; i != 0 && j != 0; i, j = t.ent[i].next, ref.ent[j].next {
		if t.ent[i].pg != ref.ent[j].pg {
			return false
		}
	}
	return i == 0 && j == 0
}

func (t *refTLB) resident() []uint64 {
	var pgs []uint64
	for i := t.ent[0].next; i != 0; i = t.ent[i].next {
		pgs = append(pgs, t.ent[i].pg)
	}
	return pgs
}

// TestPageTableMatchesMaps drives the page table and the map-based
// reference with the same seeded Export, Invalidate, Lock, Unlock,
// lookup, tlbCharge and WarmTLB sequence, with TLBs smaller than the
// working set (the ablation's 16 pages) and larger, and checks every
// status, segment, TLB hit and miss, the exported page count and the
// TLB's pages in LRU order after every step.
func TestPageTableMatchesMaps(t *testing.T) {
	sizes := []int64{100, host.PageSize, 3*host.PageSize + 5, 16 << 10, 64 << 10, 200 << 10}
	for _, tlbSize := range []int{2, 16, 4096} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("tlb%d/seed%d", tlbSize, seed), func(t *testing.T) {
				r := newRig(t)
				n := r.nb
				n.tlb = newTLB(&n.TPT.pt, tlbSize)
				ref := newRefTPT(tlbSize)
				rng := sim.NewRand(seed)
				var segs []*Segment
				var refs []*refSeg
				for step := 0; step < 3000; step++ {
					what := ""
					switch x := rng.Intn(20); {
					case x < 5 || len(segs) == 0:
						sz := sizes[rng.Intn(len(sizes))]
						s, rs := n.TPT.Export(sz), ref.export(sz)
						if s.VA != uint64(rs.va) || s.Len != rs.len || !s.Valid() {
							t.Fatalf("step %d: export of %d at %#x+%d, want %#x+%d", step, sz, s.VA, s.Len, rs.va, rs.len)
						}
						segs, refs = append(segs, s), append(refs, rs)
						what = fmt.Sprintf("export %d", sz)
					case x < 8:
						i := rng.Intn(len(segs))
						n.TPT.Invalidate(segs[i])
						ref.invalidate(refs[i])
						what = fmt.Sprintf("invalidate %d", i)
					case x < 9:
						i := rng.Intn(len(segs))
						n.TPT.Lock(segs[i])
						refs[i].lock++
						what = fmt.Sprintf("lock %d", i)
					case x < 10:
						i := rng.Intn(len(segs))
						if refs[i].lock > 0 {
							n.TPT.Unlock(segs[i])
							refs[i].lock--
						}
						what = fmt.Sprintf("unlock %d", i)
					case x < 11:
						from := n.TPT.warmVA
						n.TPT.WarmTLB()
						ref.warm(from)
						what = "warm"
					default:
						// A reference into, across or outside the exports.
						i := rng.Intn(len(segs))
						va := segs[i].VA + uint64(rng.Int63n(segs[i].Len))
						length := rng.Int63n(segs[i].Len+2*host.PageSize) - 1
						switch rng.Intn(8) {
						case 0:
							va = uint64(rng.Intn(1 << 20)) // below the export space
						case 1:
							va = ref.nextVA + uint64(rng.Intn(1<<16))
						}
						what = fmt.Sprintf("lookup %#x+%d", va, length)
						s, st := n.TPT.lookup(va, length, nil)
						rs, rst := ref.lookup(va, length)
						if st != rst || (st == StatusOK && (s.VA != uint64(rs.va) || s.Len != rs.len)) {
							t.Fatalf("step %d: %s: status %v seg %+v, want %v seg %+v", step, what, st, s, rst, rs)
						}
						if st != StatusOK {
							break
						}
						before := n.stats
						extra := n.tlbCharge(&opRec{Op: Op{VA: va, Len: length}})
						hits, misses := ref.charge(va, length)
						if gh, gm := n.stats.TLBHits-before.TLBHits, n.stats.TLBMisses-before.TLBMisses; gh != hits || gm != misses ||
							extra != sim.Duration(misses)*n.p.NICTLBMissCost {
							t.Fatalf("step %d: %s: %d hits %d misses charged %v, want %d and %d", step, what, gh, gm, extra, hits, misses)
						}
					}
					if got, want := n.TPT.Entries(), len(ref.pages); got != want {
						t.Fatalf("step %d: %s: %d pages exported, want %d", step, what, got, want)
					}
					if !sameLRU(n.tlb, &ref.tlb) || n.tlb.len() != len(ref.tlb.at) {
						t.Fatalf("step %d: %s: TLB holds %v (%d), want %v", step, what, n.tlb.resident(), n.tlb.len(), ref.tlb.resident())
					}
				}
			})
		}
	}
}

// liveChunks counts the page table's allocated chunks.
func (pt *pageTable) liveChunks() int {
	n := 0
	for _, c := range pt.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestPageTableBoundedUnderChurn runs 100k export/invalidate cycles, a
// window of recent exports live and the TLB warmed and charged as the
// experiments do, with now and then every export invalidated at once,
// as a crash's flush does. The table must hold at most the two chunks
// the window can span, however far the export addresses have moved.
func TestPageTableBoundedUnderChurn(t *testing.T) {
	r := newRig(t)
	n := r.nb
	n.tlb = newTLB(&n.TPT.pt, 16)
	rng := sim.NewRand(5)
	var live []*Segment
	for cycle := 0; cycle < 100_000; cycle++ {
		s := n.TPT.Export(int64(1+rng.Intn(4)) * host.PageSize)
		live = append(live, s)
		n.TPT.WarmTLB()
		n.tlbCharge(&opRec{Op: Op{VA: s.VA, Len: s.Len}})
		if len(live) > 4 {
			n.TPT.Invalidate(live[0])
			live = live[1:]
		}
		if cycle%1000 == 999 {
			for _, i := range rng.Perm(len(live)) {
				n.TPT.Invalidate(live[i])
			}
			live = live[:0]
			if c := n.TPT.pt.liveChunks(); c > 1 || n.TPT.Entries() != 0 || n.tlb.len() != 0 {
				t.Fatalf("cycle %d: after a flush %d chunks, %d pages, %d TLB entries; want at most 1, 0, 0",
					cycle, c, n.TPT.Entries(), n.tlb.len())
			}
		}
		if c := n.TPT.pt.liveChunks(); c > 2 || len(n.TPT.pt.chunks) > 2 {
			t.Fatalf("cycle %d: %d chunks allocated in a table of %d, want at most 2", cycle, c, len(n.TPT.pt.chunks))
		}
	}
	if pages := pageOf(n.TPT.nextVA - 1<<20); pages < 100_000 {
		t.Fatalf("churn moved the export space only %d pages", pages)
	}
}

// TestPageTableHoldsNoPointers walks the page row and chunk types:
// neither may hold a pointer, slice, string, map, interface, channel or
// func, or the collector scans every chunk on every cycle.
func TestPageTableHoldsNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[pageEntry](), reflect.TypeFor[pageChunk](), reflect.TypeFor[tlbEntry]()} {
		if path := pointerField(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
}

// pointerField returns the path of the first field of t, itself
// included, that holds a pointer, or "" if none does.
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
		reflect.Interface, reflect.Chan, reflect.Func:
		return path
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}
