// Package cache implements the client-side file block cache of the DAFS
// and ODAFS clients (§4.2.1 of the paper): a fixed number of data blocks
// plus a larger pool of block *headers*. When a data block is reclaimed its
// header can live on "empty", still holding the remote memory reference the
// server piggybacked — that header population is the ORDMA reference
// directory. A header holds its reference by value, as the paper's
// client keeps it in the block header it already has, so recording one
// allocates nothing. Replacement for both populations is pluggable (LRU
// default, multi-queue as the §4.2 discussion suggests).
//
// The package is a pure data structure: callers charge simulated CPU time.
package cache

// Key identifies a block: a block-aligned offset within a file.
type Key struct {
	File uint64
	Off  int64
}

// RemoteRef is a piggybacked reference to a block resident in the server
// cache: export-space address, length, and the protecting capability.
// It is held by value; VA 0, which no export is given, means none.
type RemoteRef struct {
	VA  uint64
	Len int64
	Cap []byte
	// Epoch stamps which server incarnation exported the reference: the
	// cached client stamps its shard's failover count, so a failover
	// voids the reference, because a VA valid in the dead copy's export
	// space may alias a different block in the surviving copy's.
	// Unreplicated shards never fail over and leave it zero.
	Epoch uint64
}

// Block is one client cache entry. A block always has a header; it may or
// may not hold data, and may or may not carry a remote reference (Ref.VA
// nonzero).
type Block struct {
	Key     Key
	Len     int64
	HasData bool
	Ref     RemoteRef

	dataElem   elem // position in the data replacement policy
	headerElem elem // position in the header replacement policy
}

// Stats counts cache outcomes.
type Stats struct {
	DataHits    uint64 // block with data found
	DataMisses  uint64
	RefHits     uint64 // miss, but an empty header held a remote reference
	Inserts     uint64
	DataEvicts  uint64 // block demoted to empty header
	TotalEvicts uint64 // header (and any ref) discarded entirely
}

// Cache is the client block cache.
type Cache struct {
	blockSize int64
	dataCap   int // max blocks holding data
	headerCap int // max headers (>= dataCap)

	blocks  map[Key]*Block
	data    Policy // orders blocks that hold data
	headers Policy // orders all headers

	stats Stats
}

// Option configures a Cache.
type Option func(*Cache)

// WithPolicies selects the replacement policies for data blocks and
// headers (defaults: LRU and LRU).
func WithPolicies(data, headers Policy) Option {
	return func(c *Cache) {
		c.data = data
		c.headers = headers
	}
}

// New creates a cache of dataCap data blocks and headerCap headers of
// blockSize bytes each. headerCap < dataCap is raised to dataCap.
func New(blockSize int64, dataCap, headerCap int, opts ...Option) *Cache {
	if blockSize <= 0 || dataCap <= 0 {
		panic("cache: block size and data capacity must be positive")
	}
	if headerCap < dataCap {
		headerCap = dataCap
	}
	c := &Cache{
		blockSize: blockSize,
		dataCap:   dataCap,
		headerCap: headerCap,
		blocks:    make(map[Key]*Block),
		data:      NewLRU(),
		headers:   NewLRU(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BlockSize returns the configured block size.
func (c *Cache) BlockSize() int64 { return c.blockSize }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len returns (blocks holding data, total headers).
func (c *Cache) Len() (data, headers int) { return c.data.Len(), len(c.blocks) }

// Align rounds off down to a block boundary.
func (c *Cache) Align(off int64) int64 { return off - off%c.blockSize }

// Lookup finds the block covering off. hit is true only if the block holds
// data. On a data-less header, the block is still returned so the caller
// can consult its remote reference (counted as RefHits when present).
func (c *Cache) Lookup(file uint64, off int64) (b *Block, hit bool) {
	key := Key{File: file, Off: c.Align(off)}
	b, ok := c.blocks[key]
	if !ok {
		c.stats.DataMisses++
		return nil, false
	}
	c.headers.Touch(&b.headerElem)
	if b.HasData {
		c.stats.DataHits++
		c.data.Touch(&b.dataElem)
		return b, true
	}
	c.stats.DataMisses++
	if b.Ref.VA != 0 {
		c.stats.RefHits++
	}
	return b, false
}

// Insert installs data for the block covering off, with an optional
// piggybacked remote reference (VA 0 for none). Existing header state
// (a retained reference) is updated in place; a ref with VA 0 leaves it
// as it is.
func (c *Cache) Insert(file uint64, off int64, length int64, ref RemoteRef) *Block {
	key := Key{File: file, Off: c.Align(off)}
	c.stats.Inserts++
	b, ok := c.blocks[key]
	if !ok {
		b = &Block{Key: key}
		b.dataElem.owner = b
		b.headerElem.owner = b
		c.blocks[key] = b
		c.headers.Insert(&b.headerElem)
	} else {
		c.headers.Touch(&b.headerElem)
	}
	b.Len = length
	if ref.VA != 0 {
		b.Ref = ref
	}
	if !b.HasData {
		b.HasData = true
		c.data.Insert(&b.dataElem)
	} else {
		c.data.Touch(&b.dataElem)
	}
	c.enforce()
	return b
}

// Has reports whether a header exists for the block covering off, without
// touching counters or replacement state. Callers use it to price inserts:
// re-filling an existing header is far cheaper than allocating one.
func (c *Cache) Has(file uint64, off int64) bool {
	_, ok := c.blocks[Key{File: file, Off: c.Align(off)}]
	return ok
}

// RefOf returns the remote reference of the block covering off, VA 0 if
// it has none, without touching counters or replacement state (the
// internal directory probe on the fetch path — the user-visible lookup
// already counted the miss).
func (c *Cache) RefOf(file uint64, off int64) RemoteRef {
	b, ok := c.blocks[Key{File: file, Off: c.Align(off)}]
	if !ok {
		return RemoteRef{}
	}
	return b.Ref
}

// SetRef records a remote reference on the block covering off without
// installing data — building the directory eagerly (§4.2(a)) or refreshing
// it after an RPC fallback.
func (c *Cache) SetRef(file uint64, off int64, ref RemoteRef) *Block {
	key := Key{File: file, Off: c.Align(off)}
	b, ok := c.blocks[key]
	if !ok {
		b = &Block{Key: key}
		b.dataElem.owner = b
		b.headerElem.owner = b
		c.blocks[key] = b
		c.headers.Insert(&b.headerElem)
		c.enforce()
	} else {
		c.headers.Touch(&b.headerElem)
	}
	b.Ref = ref
	return b
}

// DropRef discards the remote reference of the block covering off (after
// the server NIC faulted it).
func (c *Cache) DropRef(file uint64, off int64) {
	key := Key{File: file, Off: c.Align(off)}
	if b, ok := c.blocks[key]; ok {
		b.Ref = RemoteRef{}
	}
}

// InvalidateFile discards all state for a file (close without delegation,
// or cache coherence events).
func (c *Cache) InvalidateFile(file uint64) {
	for key, b := range c.blocks {
		if key.File != file {
			continue
		}
		if b.HasData {
			c.data.Remove(&b.dataElem)
		}
		c.headers.Remove(&b.headerElem)
		delete(c.blocks, key)
		c.stats.TotalEvicts++
	}
}

// enforce applies both capacity limits: data overflow demotes the policy's
// victim to an empty header (its reference survives); header overflow
// discards the victim entirely.
func (c *Cache) enforce() {
	for c.data.Len() > c.dataCap {
		v := c.data.Victim().owner
		c.data.Remove(&v.dataElem)
		v.HasData = false
		c.stats.DataEvicts++
	}
	for len(c.blocks) > c.headerCap {
		v := c.headers.Victim().owner
		if v.HasData {
			c.data.Remove(&v.dataElem)
			v.HasData = false
			c.stats.DataEvicts++
		}
		c.headers.Remove(&v.headerElem)
		delete(c.blocks, v.Key)
		c.stats.TotalEvicts++
	}
}
