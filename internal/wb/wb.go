// Package wb is the per-shard write-behind and commit subsystem: the
// server-side machinery that makes writes more than "bytes enter the
// buffer cache, done" (§4.2.2 of the paper is explicit that the write
// path is gated by the server's ability to stage and destage dirty
// data — which is why ORDMA targets reads).
//
// A Flusher sits between a shard's protocol servers and its disk:
//
//   - unstable writes mark their buffer-cache blocks dirty (pinned
//     against eviction) and return immediately; a background flusher
//     process batches contiguous dirty ranges into coalesced destage
//     I/Os;
//   - stable writes (wire.FlagStable) are written through: the handler
//     blocks until the covered blocks are on disk;
//   - OpCommit destages everything dirty in the committed range and
//     returns the server's write verifier;
//   - high/low-water-mark backpressure throttles incoming unstable
//     writes to destage speed once dirty data accumulates, so a fleet
//     offered more write bandwidth than its disks sustain degrades to
//     bounded queueing instead of unbounded dirty growth;
//   - a crash discards every not-yet-destaged block and rolls the
//     NFSv3-style write verifier, so clients comparing verifiers detect
//     that uncommitted unstable writes were lost and re-issue them.
//
// All state is iterated in deterministic order (FIFO dirty list,
// ascending block offsets), so simulations using the flusher stay a
// pure function of their inputs.
package wb

import (
	"fmt"
	"sort"

	"danas/internal/fsim"
	"danas/internal/obs"
	"danas/internal/sim"
)

// Config tunes a Flusher.
type Config struct {
	// HighWater and LowWater are dirty-block counts: an unstable write
	// that leaves at least HighWater blocks awaiting destage blocks its
	// handler until the flusher drains the backlog to LowWater.
	HighWater, LowWater int
	// MaxBatch caps how many contiguous dirty blocks one destage I/O
	// coalesces (one seek amortized over the batch).
	MaxBatch int
}

// DefaultConfig returns the water marks the experiments use: a couple
// of megabytes of dirty data at the default 16 KB block size, with the
// flusher writing up to 16-block extents.
func DefaultConfig() Config {
	return Config{HighWater: 128, LowWater: 32, MaxBatch: 16}
}

func (cfg Config) validate() {
	if cfg.HighWater <= 0 || cfg.LowWater < 0 || cfg.LowWater >= cfg.HighWater {
		panic(fmt.Sprintf("wb: need 0 <= LowWater < HighWater, got %d/%d", cfg.LowWater, cfg.HighWater))
	}
	if cfg.MaxBatch < 1 {
		panic(fmt.Sprintf("wb: MaxBatch must be >= 1, got %d", cfg.MaxBatch))
	}
}

// Stats counts write-behind outcomes.
type Stats struct {
	// Flushes is destage I/Os issued; BlocksFlushed and BytesFlushed
	// count what they carried. Coalesced counts blocks that rode a
	// neighbour's I/O instead of paying their own seek.
	Flushes       uint64
	BlocksFlushed uint64
	BytesFlushed  int64
	Coalesced     uint64
	// StableWrites counts write-through (FlagStable) writes; Commits
	// counts OpCommit executions.
	StableWrites uint64
	Commits      uint64
	// Throttled counts writes that hit the high-water mark; StallTime is
	// the total handler time spent blocked in that backpressure.
	Throttled uint64
	StallTime sim.Duration
	// LostBlocks counts dirty blocks discarded by a crash before they
	// were destaged — the data loss the rolled verifier advertises.
	LostBlocks uint64
}

// Flusher is one shard's write-behind state: the dirty-block ledger over
// the shard's buffer cache, the background destage process, and the
// write verifier.
type Flusher struct {
	s     *sim.Scheduler
	cache *fsim.ServerCache
	disk  *fsim.Disk
	cfg   Config

	verifier uint64
	// dirty is the not-yet-destaging ledger; order is its FIFO arrival
	// order (entries whose key has left dirty are skipped lazily).
	dirty map[fsim.BlockKey]int64
	order sim.Ring[fsim.BlockKey]
	// flushing maps blocks with a destage I/O in flight to the signal
	// that fires when it lands.
	flushing map[fsim.BlockKey]*sim.Signal

	kick    *sim.Signal // wakes the flusher process
	release *sim.Signal // wakes throttled writers

	stats Stats
}

// NewFlusher starts the write-behind subsystem for one shard: dirty
// bookkeeping over cache, destaging to disk, and a background flusher
// process named after the shard. The zero-valued cfg is replaced by
// DefaultConfig.
func NewFlusher(s *sim.Scheduler, name string, cache *fsim.ServerCache, disk *fsim.Disk, cfg Config) *Flusher {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	cfg.validate()
	f := &Flusher{
		s:        s,
		cache:    cache,
		disk:     disk,
		cfg:      cfg,
		verifier: 1,
		dirty:    make(map[fsim.BlockKey]int64),
		flushing: make(map[fsim.BlockKey]*sim.Signal),
	}
	s.Go(name+"-flusher", f.run)
	return f
}

// Verifier returns the current write verifier. It changes only when a
// crash discards uncommitted dirty data.
func (f *Flusher) Verifier() uint64 { return f.verifier }

// DirtyBlocks returns blocks holding written data not yet on disk
// (awaiting destage plus destaging right now) — the quantity the water
// marks meter. A block re-dirtied while its destage is in flight sits
// in both maps but is one block of dirty data.
func (f *Flusher) DirtyBlocks() int {
	n := len(f.dirty)
	for key := range f.flushing {
		if _, ok := f.dirty[key]; !ok {
			n++
		}
	}
	return n
}

// Throttling reports whether writers are currently parked at the
// high-water mark awaiting a low-water release (the telemetry sampler's
// wb-throttle gauge).
func (f *Flusher) Throttling() bool { return f.release != nil && !f.release.Fired() }

// Stats returns a copy of the counters.
func (f *Flusher) Stats() Stats { return f.stats }

// Config returns the active configuration.
func (f *Flusher) Config() Config { return f.cfg }

// Write records one server-side write of [off, off+n) to fl, whose
// blocks the caller has just installed in the buffer cache, and reports
// whether the handler must now block in Stall. A stable write must
// (write-through); an unstable write marks its blocks dirty for the
// background flusher and must block only at the high-water mark.
func (f *Flusher) Write(fl *fsim.File, off, n int64, stable bool) bool {
	if n <= 0 {
		return false
	}
	f.markRange(fl, off, n)
	if stable {
		return true
	}
	if f.kick != nil && !f.kick.Fired() {
		f.kick.Fire()
	}
	return f.DirtyBlocks() >= f.cfg.HighWater
}

// Stall blocks p through the wait Write reported, at once after it: a
// stable write destages the covered blocks; an unstable one applies
// high-water backpressure until the backlog drains to the low-water
// mark.
func (f *Flusher) Stall(p *sim.Proc, fl *fsim.File, off, n int64, stable bool) {
	if stable {
		// Write-through: the freshly-marked blocks (plus any older dirty
		// neighbours in the range) destage before the handler replies.
		// The whole drain is a stall bracket: an op held hostage by
		// destage bandwidth reports as stall, not as the disk writes the
		// drain is made of.
		f.stats.StableWrites++
		sp := obs.Active(p)
		mark, t0 := sp.Mark(), p.Now()
		f.destageRange(p, fl, off, n, false)
		sp.Rebucket(mark, p.Now().Sub(t0), obs.PhaseStall)
		return
	}
	f.stats.Throttled++
	t0 := p.Now()
	for f.DirtyBlocks() > f.cfg.LowWater {
		if f.release == nil || f.release.Fired() {
			f.release = sim.NewSignal(f.s)
		}
		f.release.Wait(p)
	}
	stalled := p.Now().Sub(t0)
	f.stats.StallTime += stalled
	obs.Active(p).Add(obs.PhaseStall, stalled)
}

// markRange enters the resident blocks covering [off, off+n) into the
// dirty ledger (pinning them in the cache) — the bookkeeping shared by
// stable and unstable writes.
func (f *Flusher) markRange(fl *fsim.File, off, n int64) {
	bs := f.cache.BlockSize()
	end := off + n
	if end > fl.Size() {
		end = fl.Size()
	}
	for bo := off - off%bs; bo < end; bo += bs {
		b := f.cache.MarkDirty(fl, bo)
		if b == nil {
			continue // lost to a racing crash: nothing to destage
		}
		if _, queued := f.dirty[b.Key]; !queued {
			f.order.Push(b.Key)
		}
		f.dirty[b.Key] = b.Len // refresh: an extending write grew the EOF block
	}
}

// Commit destages every dirty block of fl within [off, off+n) — n <= 0
// commits the whole file — and returns the write verifier once the range
// is clean. Blocks another process is already destaging are waited for,
// not re-written.
func (f *Flusher) Commit(p *sim.Proc, fl *fsim.File, off, n int64) uint64 {
	f.stats.Commits++
	// Commit drains are stall brackets like stable-write drains: the
	// disk time (and in-flight waits) they are made of rebuckets into
	// the stall phase of the committing op's span.
	sp := obs.Active(p)
	mark, t0 := sp.Mark(), p.Now()
	f.destageRange(p, fl, off, n, true)
	sp.Rebucket(mark, p.Now().Sub(t0), obs.PhaseStall)
	return f.verifier
}

// Crash discards the entire dirty ledger — data that never reached the
// disk dies with the host — and rolls the write verifier so clients
// detect the loss. Throttled writers are released (their handlers die
// with the host anyway; the server's down guards suppress their
// replies). Destage I/Os already at the disk complete harmlessly: the
// crash-time cache flush already dropped their blocks.
func (f *Flusher) Crash() {
	f.stats.LostBlocks += uint64(len(f.dirty))
	f.dirty = make(map[fsim.BlockKey]int64)
	f.order = sim.Ring[fsim.BlockKey]{}
	f.verifier++
	if f.release != nil && !f.release.Fired() {
		f.release.Fire()
	}
}

// run is the background flusher process: whenever dirty blocks exist it
// picks the oldest, widens it to the maximal contiguous dirty extent (up
// to MaxBatch blocks), destages the extent as one coalesced disk write,
// and releases throttled writers once the backlog falls to the low-water
// mark.
func (f *Flusher) run(p *sim.Proc) {
	for {
		for len(f.dirty) == 0 {
			if f.kick == nil || f.kick.Fired() {
				f.kick = sim.NewSignal(f.s)
			}
			f.kick.Wait(p)
		}
		batch := f.pickBatch()
		f.flushKeys(p, batch)
		f.maybeRelease()
	}
}

// pickBatch pops the oldest dirty block and extends it to a run of
// offset-contiguous dirty blocks of the same file, at most MaxBatch
// long, returned in ascending offset order. The backward extension is
// capped at MaxBatch-1 blocks so the seed itself always fits in the
// batch: the seed's FIFO entry has been consumed, and a batch that
// excluded it would orphan a dirty block no order entry points at
// (stranding the ledger and underflowing the queue).
func (f *Flusher) pickBatch() []fsim.BlockKey {
	var seed fsim.BlockKey
	for {
		seed = f.order.Pop()
		if _, ok := f.dirty[seed]; ok {
			break
		}
	}
	bs := f.cache.BlockSize()
	lo := seed.Off
	for steps := 1; steps < f.cfg.MaxBatch && lo >= bs; steps++ {
		if _, ok := f.dirty[fsim.BlockKey{File: seed.File, Off: lo - bs}]; !ok {
			break
		}
		lo -= bs
	}
	batch := make([]fsim.BlockKey, 0, f.cfg.MaxBatch)
	for bo := lo; len(batch) < f.cfg.MaxBatch; bo += bs {
		key := fsim.BlockKey{File: seed.File, Off: bo}
		if _, ok := f.dirty[key]; !ok {
			break
		}
		batch = append(batch, key)
	}
	return batch
}

// flushKeys destages one contiguous batch as a single disk write: the
// keys move from dirty to flushing, the disk serves one seek plus the
// batch's total transfer, and completion marks the blocks clean and
// fires the batch signal for any commit waiting on them.
func (f *Flusher) flushKeys(p *sim.Proc, keys []fsim.BlockKey) {
	// Drop keys another destage already took (a commit's snapshot can go
	// stale while its earlier runs wait on the disk) so no zero-byte
	// I/Os are issued and stats count each destage once.
	batch := make([]fsim.BlockKey, 0, len(keys))
	for _, key := range keys {
		if _, ok := f.dirty[key]; ok {
			batch = append(batch, key)
		}
	}
	if len(batch) == 0 {
		return
	}
	sig := sim.NewSignal(f.s)
	var bytes int64
	for _, key := range batch {
		bytes += f.dirty[key]
		delete(f.dirty, key)
		f.flushing[key] = sig
	}
	f.disk.Write(p, bytes)
	for _, key := range batch {
		// A block re-dirtied (or re-picked into a newer destage I/O)
		// while this one was in flight still owes data to the disk:
		// leave its cache pin and any newer flushing entry alone — this
		// completion only settles the state it owns. The pin drops only
		// once the block is in neither ledger.
		if cur, ok := f.flushing[key]; ok && cur == sig {
			delete(f.flushing, key)
		}
		_, redirtied := f.dirty[key]
		_, inflight := f.flushing[key]
		if !redirtied && !inflight {
			f.cache.MarkClean(key)
		}
	}
	sig.Fire()
	f.stats.Flushes++
	f.stats.BlocksFlushed += uint64(len(batch))
	f.stats.BytesFlushed += bytes
	f.stats.Coalesced += uint64(len(batch) - 1)
}

// destageRange destages every dirty block of fl within [off, off+n) on
// the caller's process (contiguous runs coalesced up to MaxBatch) and
// then waits out blocks the flusher already has in flight. It iterates
// the dirty ledger, not the file's block index, so its cost scales with
// dirty data rather than file size; the offset sort keeps behavior
// deterministic whatever the map order. wait selects whether in-flight
// blocks are waited for (commit semantics) or skipped (stable-write
// overwrite: the re-written content is already in the range's own I/O).
func (f *Flusher) destageRange(p *sim.Proc, fl *fsim.File, off, n int64, wait bool) {
	bs := f.cache.BlockSize()
	if n <= 0 {
		off, n = 0, fl.Size()
	}
	end := off + n
	if end > fl.Size() {
		end = fl.Size()
	}
	start := off - off%bs
	offs := rangeOffsets(f.dirty, fl.ID, start, end)
	for i := 0; i < len(offs); {
		run := []fsim.BlockKey{{File: fl.ID, Off: offs[i]}}
		i++
		for i < len(offs) && len(run) < f.cfg.MaxBatch && offs[i] == offs[i-1]+bs {
			run = append(run, fsim.BlockKey{File: fl.ID, Off: offs[i]})
			i++
		}
		f.flushKeys(p, run)
	}
	if wait {
		for _, bo := range rangeOffsets(f.flushing, fl.ID, start, end) {
			if sig, ok := f.flushing[fsim.BlockKey{File: fl.ID, Off: bo}]; ok {
				sig.Wait(p)
			}
		}
	}
	f.maybeRelease()
}

// rangeOffsets collects the block offsets of file within [start, end)
// present in m, in ascending order.
func rangeOffsets[V any](m map[fsim.BlockKey]V, file fsim.FileID, start, end int64) []int64 {
	var offs []int64
	for key := range m {
		if key.File == file && key.Off >= start && key.Off < end {
			offs = append(offs, key.Off)
		}
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	return offs
}

// maybeRelease wakes throttled writers once dirty data has drained to
// the low-water mark.
func (f *Flusher) maybeRelease() {
	if f.release != nil && !f.release.Fired() && f.DirtyBlocks() <= f.cfg.LowWater {
		f.release.Fire()
	}
}
