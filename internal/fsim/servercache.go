package fsim

import (
	"fmt"

	"danas/internal/host"
	"danas/internal/sim"
)

// BlockKey identifies one cache block: a block-aligned range of a file.
type BlockKey struct {
	File FileID
	Off  int64
}

// CacheBlock is one resident block of the server file cache. Export is an
// opaque slot for the ODAFS export manager to hang the block's TPT segment
// on; the cache invokes the eviction hook so the segment can be invalidated
// when the block is reclaimed (the lazy-consistency mechanism of §4.2(b)).
type CacheBlock struct {
	Key    BlockKey
	Len    int64
	Export any
	dirty  bool
	// prev and next thread the cache's LRU list through its blocks.
	prev, next *CacheBlock
}

// Dirty reports whether the block holds written data not yet destaged
// to disk. Dirty blocks are pinned: eviction skips them until the
// write-behind flusher marks them clean.
func (b *CacheBlock) Dirty() bool { return b.dirty }

// Ref returns a BlockRef describing the block's content.
func (b *CacheBlock) Ref() BlockRef {
	return BlockRef{File: b.Key.File, Off: b.Key.Off, Len: b.Len}
}

// ServerCache is the server's file block cache (LRU). Block size is fixed
// per instance — the paper's Figure 7 sweeps it from 4 KB to 64 KB.
type ServerCache struct {
	fs        *FS
	disk      *Disk
	blockSize int64
	capacity  int // max resident blocks
	// lru is the sentinel of the LRU list: lru.next is the most
	// recently used block, lru.prev the least.
	lru    CacheBlock
	blocks map[BlockKey]*CacheBlock

	// OnEvict runs when a block is reclaimed (ODAFS invalidates its
	// export segment here). OnInsert runs when a block becomes resident.
	// OnWrite runs when a write lands on an already-resident block,
	// after the block's extent has been refreshed: the ODAFS export
	// manager re-exports the block when its extent changed, so no live
	// reference can describe a stale length.
	OnEvict  func(*CacheBlock)
	OnInsert func(*CacheBlock)
	OnWrite  func(*CacheBlock)

	Hits, Misses uint64
	dirty        int
}

// NewServerCache creates a cache of capacity blocks of blockSize bytes over
// fs, filling misses from disk.
func NewServerCache(fs *FS, disk *Disk, blockSize int64, capacity int) *ServerCache {
	if blockSize <= 0 || capacity <= 0 {
		panic("fsim: cache needs positive block size and capacity")
	}
	c := &ServerCache{
		fs:        fs,
		disk:      disk,
		blockSize: blockSize,
		capacity:  capacity,
		blocks:    make(map[BlockKey]*CacheBlock),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// pushFront links b in as the most recently used block.
func (c *ServerCache) pushFront(b *CacheBlock) {
	b.prev, b.next = &c.lru, c.lru.next
	b.next.prev = b
	c.lru.next = b
}

// unlink takes b out of the LRU list.
func (c *ServerCache) unlink(b *CacheBlock) {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
}

// moveToFront makes resident block b the most recently used.
func (c *ServerCache) moveToFront(b *CacheBlock) {
	c.unlink(b)
	c.pushFront(b)
}

// BlockSize returns the cache block size.
func (c *ServerCache) BlockSize() int64 { return c.blockSize }

// Len returns resident blocks.
func (c *ServerCache) Len() int { return len(c.blocks) }

// align returns the block-aligned key and the block length for an offset
// within f.
func (c *ServerCache) align(f *File, off int64) (BlockKey, int64) {
	aligned := off - off%c.blockSize
	l := c.blockSize
	if aligned+l > f.Size() {
		l = f.Size() - aligned
	}
	return BlockKey{File: f.ID, Off: aligned}, l
}

// Peek reports whether the block covering off is resident, without
// touching LRU state or counters.
func (c *ServerCache) Peek(f *File, off int64) (*CacheBlock, bool) {
	key, _ := c.align(f, off)
	b, ok := c.blocks[key]
	return b, ok
}

// Get returns the cache block covering off, reading it from disk on a
// miss. The caller charges host CPU costs (lookup/insert); Get charges
// only device time.
func (c *ServerCache) Get(p *sim.Proc, f *File, off int64) (*CacheBlock, bool) {
	b, key, l := c.lookup(f, off)
	if b != nil {
		return b, true
	}
	c.disk.Read(p, l)
	return c.insert(key, l), false
}

// lookup returns the resident block covering off, counting a hit and
// refreshing its LRU place, or counts a miss and returns nil with the
// key and length of the block to read.
func (c *ServerCache) lookup(f *File, off int64) (*CacheBlock, BlockKey, int64) {
	key, l := c.align(f, off)
	if l <= 0 {
		panic(fmt.Sprintf("fsim: Get beyond EOF: off=%d size=%d", off, f.Size()))
	}
	if b, ok := c.blocks[key]; ok {
		c.Hits++
		c.moveToFront(b)
		return b, key, l
	}
	c.Misses++
	return nil, key, l
}

// Walk touches every cache block of a byte range for a request served
// by callbacks (see host.Job), the loop a server's read handler runs:
// per block a CacheLookup charge, then on a miss the block's disk read
// and a CacheInsert charge. A server keeps one per request context and
// reuses it.
type Walk struct {
	c       *ServerCache
	f       *File
	bo, end int64
	key     BlockKey // the missed block, its read in flight
	l       int64
	stage   walkStage
}

type walkStage uint8

const (
	walkLookup   walkStage = iota // charge the next block's lookup
	walkGet                       // lookup charged: get the block
	walkFill                      // miss read done: insert the block
	walkInserted                  // insert charged: on to the next block
)

// Start begins a walk of [off, off+n) of f.
func (w *Walk) Start(c *ServerCache, f *File, off, n int64) {
	*w = Walk{c: c, f: f, bo: off, end: off + n}
}

// Step advances the walk for j and reports true once every block is
// touched, or at once when down: a crashed host does no kernel work and
// must not re-populate the cache its crash flushed. Otherwise j waits on
// a charge, and j.Step must call Step again.
func (w *Walk) Step(j *host.Job, down bool) bool {
	p := j.H.P
	for {
		switch w.stage {
		case walkLookup:
			if w.bo >= w.end || down {
				return true
			}
			w.stage = walkGet
			if !j.Compute(p.CacheLookup) {
				return false
			}
		case walkGet:
			b, key, l := w.c.lookup(w.f, w.bo)
			if b != nil {
				w.bo, w.stage = w.bo+w.c.blockSize, walkLookup
				continue
			}
			w.key, w.l, w.stage = key, l, walkFill
			if !w.c.disk.ReadThen(j, l) {
				return false
			}
		case walkFill:
			w.c.insert(w.key, w.l)
			w.stage = walkInserted
			if !j.Compute(p.CacheInsert) {
				return false
			}
		case walkInserted:
			w.bo, w.stage = w.bo+w.c.blockSize, walkLookup
		}
	}
}

// Warm makes every block of f resident without disk traffic or CPU cost —
// the experiments' "file warm in the server cache" precondition.
func (c *ServerCache) Warm(f *File) {
	for off := int64(0); off < f.Size(); off += c.blockSize {
		key, l := c.align(f, off)
		if _, ok := c.blocks[key]; !ok {
			c.insert(key, l)
		}
	}
}

// Install makes the blocks covering [off, off+n) resident without disk
// traffic — the write path: written data enters the buffer cache directly.
func (c *ServerCache) Install(f *File, off, n int64) {
	if n <= 0 {
		return
	}
	end := off + n
	if end > f.Size() {
		end = f.Size()
	}
	for bo := off - off%c.blockSize; bo < end; bo += c.blockSize {
		key, l := c.align(f, bo)
		if b, ok := c.blocks[key]; ok {
			c.moveToFront(b)
			// The write landed in the resident block's memory: refresh
			// its extent (an extending write grows the EOF block) and
			// let the export manager update or invalidate any live
			// export, so no outstanding direct-access reference can
			// describe pre-write state.
			b.Len = l
			if c.OnWrite != nil {
				c.OnWrite(b)
			}
			continue
		}
		if l > 0 {
			c.insert(key, l)
		}
	}
}

// insert makes a block resident, evicting LRU victims beyond capacity.
// Dirty blocks are pinned: they are skipped when hunting victims, so the
// cache may transiently exceed capacity while dirty data accumulates
// (the write-behind high-water mark bounds that growth).
//
// Two requests that miss the same block while its disk read is in
// flight both fill it: the second fill finds the block resident and
// reuses it, moved to the LRU front, so the key never maps to two
// blocks and no second export is made.
func (c *ServerCache) insert(key BlockKey, l int64) *CacheBlock {
	if b, ok := c.blocks[key]; ok {
		c.moveToFront(b)
		return b
	}
	b := &CacheBlock{Key: key, Len: l}
	c.pushFront(b)
	c.blocks[key] = b
	// Hunt from the LRU end towards the front, skipping dirty blocks.
	for v := c.lru.prev; len(c.blocks) > c.capacity && v != &c.lru; {
		victim := v
		v = v.prev
		if victim.dirty {
			continue
		}
		c.evict(victim)
	}
	if c.OnInsert != nil {
		c.OnInsert(b)
	}
	return b
}

func (c *ServerCache) evict(b *CacheBlock) {
	c.unlink(b)
	delete(c.blocks, b.Key)
	if b.dirty {
		b.dirty = false
		c.dirty--
	}
	if c.OnEvict != nil {
		c.OnEvict(b)
	}
}

// FlushAll evicts every resident block — the crash path: a dead server's
// cache contents are gone, and the eviction hook invalidates each
// block's ORDMA export so outstanding client references fault instead
// of reading stale memory. Eviction order is irrelevant (state-only, no
// events), so map iteration order is safe here.
func (c *ServerCache) FlushAll() {
	for _, b := range c.blocks {
		c.evict(b)
	}
}

// MarkDirty marks the resident block covering off dirty, pinning it
// against eviction until MarkClean. It returns the block, or nil when no
// block covers off (the write raced an eviction or crash).
func (c *ServerCache) MarkDirty(f *File, off int64) *CacheBlock {
	key, _ := c.align(f, off)
	b, ok := c.blocks[key]
	if !ok {
		return nil
	}
	if !b.dirty {
		b.dirty = true
		c.dirty++
	}
	return b
}

// MarkClean clears the dirty pin of the block with the given key,
// tolerating blocks that are no longer resident (lost to a crash while
// their destage was in flight).
func (c *ServerCache) MarkClean(key BlockKey) {
	if b, ok := c.blocks[key]; ok && b.dirty {
		b.dirty = false
		c.dirty--
	}
}

// DirtyLen returns the number of resident dirty blocks.
func (c *ServerCache) DirtyLen() int { return c.dirty }

// EvictFile reclaims all blocks of a file (used to construct cold-cache and
// partial-hit-rate experiment states).
func (c *ServerCache) EvictFile(id FileID) {
	for key, b := range c.blocks {
		if key.File == id {
			c.evict(b)
		}
	}
}

// EvictFraction evicts approximately the given fraction of f's blocks,
// choosing deterministically by block index — the ORDMA success-rate
// ablation uses this to set the server hit rate.
func (c *ServerCache) EvictFraction(f *File, frac float64, r *sim.Rand) {
	for off := int64(0); off < f.Size(); off += c.blockSize {
		key, _ := c.align(f, off)
		if b, ok := c.blocks[key]; ok && r.Float64() < frac {
			c.evict(b)
		}
	}
}
