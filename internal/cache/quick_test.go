package cache

import (
	"testing"
	"testing/quick"
)

// The quick tests drive the cache with arbitrary operation scripts and
// assert structural invariants after every step. A script is a slice of
// opcodes; each opcode decodes into one of the cache's mutating
// operations over a small key universe so collisions, demotions and
// evictions all happen often.

const (
	qBlockSize = 1 << 12
	qDataCap   = 4
	qHeaderCap = 10
	qFiles     = 3
	qOffsets   = 32 // > qHeaderCap so header overflow is common
)

// applyOp decodes and applies one scripted operation.
func applyOp(c *Cache, code uint16) {
	file := uint64(code>>2) % qFiles
	off := int64((code>>4)%qOffsets) * qBlockSize
	switch code % 4 {
	case 0:
		c.Lookup(file, off)
	case 1:
		c.Insert(file, off, qBlockSize, RemoteRef{VA: uint64(off) + 1, Len: qBlockSize})
	case 2:
		c.SetRef(file, off, RemoteRef{VA: uint64(off) + 1, Len: qBlockSize})
	case 3:
		c.InvalidateFile(file)
	}
}

// TestQuickCapacityInvariants checks that under arbitrary operation
// sequences the data-block population never exceeds its capacity, the
// header population never exceeds its capacity, and blocks holding data
// are always a subset of the headers.
func TestQuickCapacityInvariants(t *testing.T) {
	prop := func(script []uint16) bool {
		c := New(qBlockSize, qDataCap, qHeaderCap)
		for _, code := range script {
			applyOp(c, code)
			data, headers := c.Len()
			if data > qDataCap || headers > qHeaderCap || data > headers {
				t.Logf("after op %d: data=%d headers=%d", code, data, headers)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickEvictionAccounting checks the eviction counters' meaning under
// arbitrary Lookup/Insert sequences (no SetRef, so every header was
// created by a data insert): every header discard demotes or follows a
// demotion of that block, so cumulative data evictions dominate header
// (total) evictions, and both reconcile exactly with the populations:
// inserts of new blocks = live headers + headers discarded, and data
// fills = live data blocks + demotions.
func TestQuickEvictionAccounting(t *testing.T) {
	prop := func(script []uint16) bool {
		c := New(qBlockSize, qDataCap, qHeaderCap)
		newHeaders := 0 // inserts that created a header
		dataFills := 0  // inserts that turned a data-less block into data
		for _, code := range script {
			file := uint64(code>>2) % qFiles
			off := int64((code>>4)%qOffsets) * qBlockSize
			if code%2 == 0 {
				c.Lookup(file, off)
				continue
			}
			hadHeader := c.Has(file, off)
			var hadData bool
			if hadHeader {
				_, hadData = c.Lookup(file, off)
			}
			c.Insert(file, off, qBlockSize, RemoteRef{})
			if !hadHeader {
				newHeaders++
			}
			if !hadData {
				dataFills++
			}
			st := c.Stats()
			data, headers := c.Len()
			if st.DataEvicts < st.TotalEvicts {
				t.Logf("data evicts %d < total evicts %d", st.DataEvicts, st.TotalEvicts)
				return false
			}
			if int(st.TotalEvicts) != newHeaders-headers {
				t.Logf("header accounting: %d new - %d live != %d discarded", newHeaders, headers, st.TotalEvicts)
				return false
			}
			if int(st.DataEvicts) != dataFills-data {
				t.Logf("data accounting: %d fills - %d live != %d demotions", dataFills, data, st.DataEvicts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDemotionPreservesRef checks the ORDMA directory property the
// whole design rests on (§4.2.1): when a data block is demoted to an
// empty header, the remote reference installed with it survives on the
// header — only a full header eviction may lose it.
func TestQuickDemotionPreservesRef(t *testing.T) {
	prop := func(script []uint16) bool {
		c := New(qBlockSize, qDataCap, qHeaderCap)
		refs := map[Key]uint64{} // live expectation: key -> ref VA
		for _, code := range script {
			file := uint64(code>>2) % qFiles
			off := c.Align(int64((code>>4)%qOffsets) * qBlockSize)
			key := Key{File: file, Off: off}
			switch code % 4 {
			case 0:
				c.Lookup(file, off)
			case 1:
				c.Insert(file, off, qBlockSize, RemoteRef{VA: uint64(off) + 1, Len: qBlockSize})
				refs[key] = uint64(off) + 1
			case 2:
				c.SetRef(file, off, RemoteRef{VA: uint64(off) + 7, Len: qBlockSize})
				refs[key] = uint64(off) + 7
			case 3:
				c.DropRef(file, off)
				delete(refs, key)
			}
			// Every block still under a header must carry exactly the last
			// reference installed for it — demoted or not. (A header evicted
			// for capacity legitimately forgets; Has reports survival.)
			for k, va := range refs {
				if !c.Has(k.File, k.Off) {
					delete(refs, k) // evicted wholesale: forgetting is allowed
					continue
				}
				ref := c.RefOf(k.File, k.Off)
				if ref.VA != va {
					t.Logf("block %+v lost or changed its ref (want VA %d, got %+v)", k, va, ref)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
