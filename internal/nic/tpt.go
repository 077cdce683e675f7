package nic

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"

	"danas/internal/host"
)

// Segment is a contiguous exported memory region: the unit the export
// manager advertises to remote clients and the unit of invalidation.
// Segments live in the host's private 64-bit export address space (§4.2.1:
// addressable only by the NIC, so invalidation is always due to memory
// pressure, never address-space reuse).
type Segment struct {
	VA    uint64
	Len   int64
	Cap   []byte // capability MAC; empty when capabilities are disabled
	Gen   uint64
	valid bool
	lock  int   // write-lock count; >0 blocks remote access
	slot  int32 // the segment's slot in its TPT's segment table, plus one
}

// Valid reports whether the segment is still exported.
func (g *Segment) Valid() bool { return g.valid }

// Locked reports whether the host holds the segment locked.
func (g *Segment) Locked() bool { return g.lock > 0 }

// TPT is the translation and protection table: the host-memory table the
// NIC consults (through its TLB) to validate and translate remote memory
// accesses (§2.1, §4.1).
type TPT struct {
	nic *NIC
	pt  pageTable
	// segs holds the live segments by slot, a page row's seg less one;
	// segFree lists the slots invalidation emptied.
	segs    []*Segment
	segFree []int32
	nextVA  uint64
	warmVA  uint64 // WarmTLB has offered every page below this address
	nextGen uint64
	key     []byte // HMAC key for capabilities
	// UseCapabilities enables capability verification on every ORDMA
	// (§4 "Ensuring safety"). The paper's prototype left this off.
	UseCapabilities bool
}

func newTPT(n *NIC) *TPT {
	const firstVA = 1 << 20 // leave page 0 unmapped
	return &TPT{
		nic:    n,
		nextVA: firstVA,
		warmVA: firstVA,
		key:    []byte("danas-tpt-" + n.name),
	}
}

func pageOf(va uint64) uint64 { return va / host.PageSize }

// chunkPages is the number of pages one chunk of the page table covers.
const chunkPages = 512

// pageEntry is one page's row of the page table: seg is its segment's
// slot in the TPT's segment table plus one (0: unmapped), tlb its entry
// in the TLB's list (0: not resident). It holds no pointer, so the
// collector never scans a chunk of them.
type pageEntry struct {
	seg int32
	tlb int32
}

// pageChunk is the rows of chunkPages consecutive pages, and how many
// of them are mapped.
type pageChunk struct {
	mapped int32
	pages  [chunkPages]pageEntry
}

// pageTable indexes page rows by page number, a chunk at a time:
// chunks[i] covers the pages of chunk number base+i, nil once released.
// Export addresses only grow, so exported pages are dense, and a chunk
// is allocated when its first page is exported. A chunk whose pages
// are all invalidated, wholly below the next export address, is
// released, so the table stays proportional to the live exports under
// export/invalidate churn (re-exports, registration-cache evictions, a
// crash's flush).
type pageTable struct {
	chunks []*pageChunk
	base   uint64
}

// entry returns pg's row, or nil when no chunk covers it.
func (pt *pageTable) entry(pg uint64) *pageEntry {
	i := pg/chunkPages - pt.base // wraps past len below base
	if i >= uint64(len(pt.chunks)) || pt.chunks[i] == nil {
		return nil
	}
	return &pt.chunks[i].pages[pg%chunkPages]
}

// chunk returns the chunk covering pg, allocating it if need be. Pages
// are exported in ascending order, so pg is never below the table.
func (pt *pageTable) chunk(pg uint64) *pageChunk {
	c := pg / chunkPages
	if len(pt.chunks) == 0 {
		pt.base = c
	}
	if c < pt.base {
		panic("nic: page table filled below its base")
	}
	for c-pt.base >= uint64(len(pt.chunks)) {
		pt.chunks = append(pt.chunks, nil)
	}
	ch := pt.chunks[c-pt.base]
	if ch == nil {
		ch = new(pageChunk)
		pt.chunks[c-pt.base] = ch
	}
	return ch
}

// release drops chunk number c, its rows all unmapped and out of the
// TLB, and trims released chunks off the table's front.
func (pt *pageTable) release(c uint64) {
	pt.chunks[c-pt.base] = nil
	for len(pt.chunks) > 0 && pt.chunks[0] == nil {
		pt.chunks = pt.chunks[1:]
		pt.base++
	}
}

// computeCap returns the keyed MAC protecting (va, len, gen) — the
// capability handed to clients (§4, [24]).
func (t *TPT) computeCap(va uint64, length int64, gen uint64) []byte {
	mac := hmac.New(sha256.New, t.key)
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], va)
	binary.LittleEndian.PutUint64(b[8:], uint64(length))
	binary.LittleEndian.PutUint64(b[16:], gen)
	mac.Write(b[:])
	return mac.Sum(nil)
}

// Export allocates export-space addresses for an n-byte buffer and installs
// page entries. The returned segment's Cap is set when capabilities are
// enabled.
func (t *TPT) Export(n int64) *Segment {
	if n <= 0 {
		panic("nic: export of non-positive length")
	}
	// Align each segment to a fresh page so segments never share pages.
	va := t.nextVA
	pages := host.Pages(n)
	t.nextVA += uint64(pages) * host.PageSize
	t.nextGen++
	seg := &Segment{VA: va, Len: n, Gen: t.nextGen, valid: true}
	if t.UseCapabilities {
		seg.Cap = t.computeCap(va, n, seg.Gen)
	}
	if k := len(t.segFree); k > 0 {
		seg.slot = t.segFree[k-1]
		t.segFree = t.segFree[:k-1]
		t.segs[seg.slot-1] = seg
	} else {
		t.segs = append(t.segs, seg)
		seg.slot = int32(len(t.segs))
	}
	for pg := pageOf(va); pg < pageOf(t.nextVA); pg++ {
		ch := t.pt.chunk(pg)
		ch.pages[pg%chunkPages].seg = seg.slot
		ch.mapped++
	}
	return seg
}

// Invalidate revokes a segment: remote accesses begin to fault. The NIC TLB
// entries for its pages are shot down (the host must evict NIC-TLB-resident
// pages before reclaiming them, §4.1).
func (t *TPT) Invalidate(seg *Segment) {
	if !seg.valid {
		return
	}
	seg.valid = false
	for pg := pageOf(seg.VA); pg < pageOf(seg.VA)+uint64(host.Pages(seg.Len)); pg++ {
		t.nic.tlb.evict(pg)
		c := pg / chunkPages
		ch := t.pt.chunks[c-t.pt.base]
		ch.pages[pg%chunkPages].seg = 0
		if ch.mapped--; ch.mapped == 0 && (c+1)*chunkPages <= pageOf(t.nextVA) {
			t.pt.release(c)
		}
	}
	t.segs[seg.slot-1] = nil
	t.segFree = append(t.segFree, seg.slot)
}

// Lock write-locks the segment (host about to mutate it); remote accesses
// fault until Unlock. Locks nest.
func (t *TPT) Lock(seg *Segment) { seg.lock++ }

// Unlock releases one lock level.
func (t *TPT) Unlock(seg *Segment) {
	if seg.lock == 0 {
		panic("nic: unlock of unlocked segment")
	}
	seg.lock--
}

// Entries returns the number of exported pages (for tests and reporting).
func (t *TPT) Entries() int {
	n := 0
	for _, ch := range t.pt.chunks {
		if ch != nil {
			n += int(ch.mapped)
		}
	}
	return n
}

// WarmTLB preloads the translation of every page exported since the last
// WarmTLB into the NIC TLB at no cost — the experiment-setup step the
// paper uses to ensure RDMA "always hits in the NIC TLB" (§5.2). Pages are
// loaded in ascending order, and export addresses only grow, so warming
// after each of many exports costs O(pages) in all. Pages beyond TLB
// capacity evict the least recently used ones, earlier pages first; size
// the TLB to the working set first.
func (t *TPT) WarmTLB() {
	for pg := pageOf(t.warmVA); pg < pageOf(t.nextVA); pg++ {
		t.nic.tlb.touch(pg)
	}
	t.warmVA = t.nextVA
}

// lookup finds the segment covering [va, va+len). It returns a fault
// status if any page is unmapped, invalid or locked, or if the capability
// check fails.
func (t *TPT) lookup(va uint64, length int64, cap []byte) (*Segment, Status) {
	if length <= 0 {
		return nil, StatusBadRequest
	}
	first := pageOf(va)
	last := pageOf(va + uint64(length) - 1)
	var slot int32
	for pg := first; pg <= last; pg++ {
		e := t.pt.entry(pg)
		if e == nil || e.seg == 0 {
			return nil, StatusNotExported
		}
		if slot == 0 {
			slot = e.seg
		} else if slot != e.seg {
			// Crossing into a different segment: treat as not exported —
			// references never span segments.
			return nil, StatusNotExported
		}
	}
	seg := t.segs[slot-1]
	if !seg.valid {
		return nil, StatusNotExported
	}
	if seg.Locked() {
		return nil, StatusLocked
	}
	if t.UseCapabilities {
		want := t.computeCap(seg.VA, seg.Len, seg.Gen)
		if !hmac.Equal(want, cap) {
			return nil, StatusBadCapability
		}
	}
	return seg, StatusOK
}

// tlb is the NIC's on-board translation cache. Pages with translations
// loaded here are treated as pinned and locked by the host OS (§4.1), so a
// hit guarantees residency; a miss costs a host interrupt plus a PIO reload.
// Only exported pages load: invalidation shoots a page down before
// unmapping it.
//
// The LRU list is threaded through a slice by index rather than built
// from list elements, and each page's entry index lives in its page-table
// row, so neither the list nor the index holds pointers for the collector
// to trace: warming a TLB sized to a large working set is set-up's
// largest cost.
type tlb struct {
	size int
	pt   *pageTable // a resident page's row holds its entry in ent
	ent  []tlbEntry // ent[0] is the list head: next is the MRU entry, prev the LRU
	free []int32    // unused entries of ent
}

type tlbEntry struct {
	pg         uint64
	prev, next int32
}

func newTLB(pt *pageTable, size int) *tlb {
	return &tlb{size: size, pt: pt, ent: make([]tlbEntry, 1)}
}

// touch returns true on hit; on miss it loads the page, evicting LRU
// entries beyond capacity. An unmapped page misses and loads nothing.
func (t *tlb) touch(pg uint64) bool {
	e := t.pt.entry(pg)
	if e == nil || e.seg == 0 {
		return false
	}
	if i := e.tlb; i != 0 {
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
	e.tlb = i
	for t.len() > t.size {
		t.remove(t.ent[0].prev)
	}
	return false
}

func (t *tlb) evict(pg uint64) {
	if e := t.pt.entry(pg); e != nil && e.tlb != 0 {
		t.remove(e.tlb)
	}
}

func (t *tlb) len() int { return len(t.ent) - 1 - len(t.free) }

func (t *tlb) pushFront(i int32) {
	first := t.ent[0].next
	t.ent[i].prev, t.ent[i].next = 0, first
	t.ent[first].prev = i
	t.ent[0].next = i
}

func (t *tlb) unlink(i int32) {
	e := t.ent[i]
	t.ent[e.prev].next = e.next
	t.ent[e.next].prev = e.prev
}

// remove drops entry i from the list and its page's row.
func (t *tlb) remove(i int32) {
	t.unlink(i)
	t.pt.entry(t.ent[i].pg).tlb = 0
	t.free = append(t.free, i)
}
