// Package stripe shards the flat NAS namespace across S independent
// servers by block-range striping: unit u of a file (bytes
// [u*Unit, (u+1)*Unit)) lives on shard u mod S. Every shard is a complete
// NAS box — its own file system, disk, server cache, NIC and link — and
// the namespace is replicated (every shard knows every file's name and
// size) while the data traffic partitions by offset.
//
// The package has three layers: Layout, the pure striping arithmetic;
// Striper, the one striping layer (per-shard handles and the namespace,
// span, extend and commit fan-outs) that both striped clients embed;
// and Client, a nas.Client that steps the Striper through per-shard
// sub-clients. The cached ODAFS/DAFS client embeds the same Striper
// behind its one client cache and per-shard ORDMA reference
// directories (internal/core). Set and Group add per-shard replication.
package stripe

import (
	"errors"
	"fmt"
)

// Layout describes one placement scheme: S shards with a fixed stripe
// unit, each shard optionally backed by R replica copies spread across
// failure racks. Placement and replication deliberately share this one
// abstraction — where a byte lives (ShardOf) and where its redundant
// copies live (Rack) are both pure functions of the layout. The zero
// value is invalid; use New or a literal with Shards >= 1 and Unit >= 1.
type Layout struct {
	// Shards is the number of servers the namespace is striped across.
	Shards int
	// Unit is the stripe unit in bytes: contiguous runs of Unit bytes
	// map to one shard before striping moves to the next.
	Unit int64
	// Replicas is the number of redundant copies beyond the primary each
	// shard keeps (0 = unreplicated, the pre-replication fleets).
	Replicas int
	// Racks is the number of failure domains copies are spread across.
	// 0 means rack-oblivious placement (every copy in rack 0); with
	// Racks > Replicas every copy of a shard lands in a distinct rack.
	Racks int
}

// New validates and returns a Layout.
func New(shards int, unit int64) (Layout, error) {
	l := Layout{Shards: shards, Unit: unit}
	if err := l.Validate(); err != nil {
		return Layout{}, err
	}
	return l, nil
}

// Single returns the degenerate one-shard layout (everything on shard 0).
func Single() Layout { return Layout{Shards: 1, Unit: 1 << 62} }

// ErrBadLayout classifies every Validate rejection; the rendered
// message names the specific field ("stripe: layout needs ...").
var ErrBadLayout = errors.New("stripe: layout")

// Validate reports whether the layout is usable.
func (l Layout) Validate() error {
	if l.Shards < 1 {
		return fmt.Errorf("%w needs at least one shard, got %d", ErrBadLayout, l.Shards)
	}
	if l.Unit < 1 {
		return fmt.Errorf("%w needs a positive stripe unit, got %d", ErrBadLayout, l.Unit)
	}
	if l.Replicas < 0 {
		return fmt.Errorf("%w needs a non-negative replica count, got %d", ErrBadLayout, l.Replicas)
	}
	if l.Racks < 0 {
		return fmt.Errorf("%w needs a non-negative rack count, got %d", ErrBadLayout, l.Racks)
	}
	return nil
}

// Width is the number of copies each shard keeps: the primary plus the
// replicas.
func (l Layout) Width() int { return l.Replicas + 1 }

// Rack places copy number `copy` (0 = primary) of a shard in a failure
// rack: copies rotate through the racks starting from the shard's own,
// so with Racks > Replicas no two copies of one shard share a rack, and
// primaries themselves spread across racks instead of stacking in one.
func (l Layout) Rack(shard, copy int) int {
	if l.Racks <= 1 {
		return 0
	}
	return (shard + copy) % l.Racks
}

// ShardOf returns the shard owning the byte at off.
func (l Layout) ShardOf(off int64) int {
	if l.Shards == 1 {
		return 0
	}
	return int((off / l.Unit) % int64(l.Shards))
}

// Span is one contiguous byte range owned by a single shard.
type Span struct {
	Shard int
	Off   int64
	Len   int64
}

// ExtendTargets returns the shards whose replicas lag behind off+n after
// the spans of [off, off+n) were written: every shard except the last
// span's owner, whose write already extended its replica to the end.
// The striped clients send these shards a zero-length write at the new
// end so the replicated size metadata stays coherent.
func (l Layout) ExtendTargets(off, n int64) []int {
	last := -1
	if spans := l.Spans(off, n); len(spans) > 0 {
		last = spans[len(spans)-1].Shard
	}
	var out []int
	for s := 0; s < l.Shards; s++ {
		if s != last {
			out = append(out, s)
		}
	}
	return out
}

// Spans decomposes the byte range [off, off+n) into per-shard contiguous
// spans in offset order, merging adjacent units that land on the same
// shard (always the case when Shards == 1). n <= 0 yields nil.
func (l Layout) Spans(off, n int64) []Span { return l.AppendSpans(nil, off, n) }

// AppendSpans appends the spans of [off, off+n) (see Spans) to out and
// returns the extended slice, so a caller can reuse its storage.
func (l Layout) AppendSpans(out []Span, off, n int64) []Span {
	if n <= 0 {
		return out
	}
	if l.Shards == 1 {
		return append(out, Span{Shard: 0, Off: off, Len: n})
	}
	first := len(out)
	for n > 0 {
		step := l.Unit - off%l.Unit
		if step > n {
			step = n
		}
		sh := l.ShardOf(off)
		if k := len(out) - 1; k >= first && out[k].Shard == sh && out[k].Off+out[k].Len == off {
			out[k].Len += step
		} else {
			out = append(out, Span{Shard: sh, Off: off, Len: step})
		}
		off += step
		n -= step
	}
	return out
}
