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
	lock  int // write-lock count; >0 blocks remote access
}

// Valid reports whether the segment is still exported.
func (g *Segment) Valid() bool { return g.valid }

// Locked reports whether the host holds the segment locked.
func (g *Segment) Locked() bool { return g.lock > 0 }

// TPT is the translation and protection table: the host-memory table the
// NIC consults (through its TLB) to validate and translate remote memory
// accesses (§2.1, §4.1).
type TPT struct {
	nic     *NIC
	pages   map[uint64]*Segment // page number -> owning segment
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
		pages:  make(map[uint64]*Segment),
		nextVA: firstVA,
		warmVA: firstVA,
		key:    []byte("danas-tpt-" + n.name),
	}
}

func pageOf(va uint64) uint64 { return va / host.PageSize }

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
	for i := int64(0); i < pages; i++ {
		t.pages[pageOf(va)+uint64(i)] = seg
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
	for i := int64(0); i < host.Pages(seg.Len); i++ {
		pg := pageOf(seg.VA) + uint64(i)
		delete(t.pages, pg)
		t.nic.tlb.evict(pg)
	}
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
func (t *TPT) Entries() int { return len(t.pages) }

// WarmTLB preloads the translation of every page exported since the last
// WarmTLB into the NIC TLB at no cost — the experiment-setup step the
// paper uses to ensure RDMA "always hits in the NIC TLB" (§5.2). Pages are
// loaded in ascending order, and export addresses only grow, so warming
// after each of many exports costs O(pages) in all. Pages beyond TLB
// capacity evict the least recently used ones, earlier pages first; size
// the TLB to the working set first.
func (t *TPT) WarmTLB() {
	for pg := pageOf(t.warmVA); pg < pageOf(t.nextVA); pg++ {
		if _, ok := t.pages[pg]; ok {
			t.nic.tlb.touch(pg)
		}
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
	var seg *Segment
	for pg := first; pg <= last; pg++ {
		s, ok := t.pages[pg]
		if !ok {
			return nil, StatusNotExported
		}
		if seg == nil {
			seg = s
		} else if seg != s {
			// Crossing into a different segment: treat as not exported —
			// references never span segments.
			return nil, StatusNotExported
		}
	}
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
//
// The LRU list is threaded through a slice by index rather than built
// from list elements, so neither the list nor the page index holds
// pointers for the collector to trace: warming a TLB sized to a large
// working set is set-up's largest cost.
type tlb struct {
	size int
	at   map[uint64]int32 // page -> its entry in ent
	ent  []tlbEntry       // ent[0] is the list head: next is the MRU entry, prev the LRU
	free []int32          // unused entries of ent
}

type tlbEntry struct {
	pg         uint64
	prev, next int32
}

func newTLB(size int) *tlb {
	return &tlb{size: size, at: make(map[uint64]int32), ent: make([]tlbEntry, 1)}
}

// touch returns true on hit; on miss it loads the page, evicting LRU
// entries beyond capacity.
func (t *tlb) touch(pg uint64) bool {
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

func (t *tlb) evict(pg uint64) {
	if i, ok := t.at[pg]; ok {
		t.remove(i)
	}
}

func (t *tlb) len() int { return len(t.at) }

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

// remove drops entry i from the list and the index.
func (t *tlb) remove(i int32) {
	t.unlink(i)
	delete(t.at, t.ent[i].pg)
	t.free = append(t.free, i)
}
