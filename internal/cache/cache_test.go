package cache

import (
	"testing"
	"testing/quick"
)

func TestLookupMissThenInsertHit(t *testing.T) {
	c := New(4096, 8, 32)
	if _, hit := c.Lookup(1, 0); hit {
		t.Fatal("cold lookup hit")
	}
	c.Insert(1, 0, 2048, RemoteRef{})
	b, hit := c.Lookup(1, 100) // same block, unaligned offset
	if !hit || b.Len != 2048 {
		t.Fatal("lookup after insert missed")
	}
	st := c.Stats()
	if st.DataHits != 1 || st.DataMisses != 1 || st.Inserts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAlign(t *testing.T) {
	c := New(4096, 1, 1)
	if c.Align(0) != 0 || c.Align(4095) != 0 || c.Align(4096) != 4096 || c.Align(9000) != 8192 {
		t.Fatal("alignment broken")
	}
}

func TestDataEvictionKeepsHeaderAndRef(t *testing.T) {
	c := New(4096, 2, 10)
	ref := RemoteRef{VA: 0x1000, Len: 4096}
	c.Insert(1, 0, 4096, ref)
	c.Insert(1, 4096, 4096, RemoteRef{})
	c.Insert(1, 8192, 4096, RemoteRef{}) // evicts data of block 0
	data, headers := c.Len()
	if data != 2 || headers != 3 {
		t.Fatalf("data=%d headers=%d, want 2/3", data, headers)
	}
	b, hit := c.Lookup(1, 0)
	if hit {
		t.Fatal("evicted block still reports data")
	}
	if b == nil || b.Ref.VA != ref.VA || b.Ref.Len != ref.Len {
		t.Fatal("empty header lost its remote reference — the ORDMA directory broke")
	}
	if st := c.Stats(); st.RefHits != 1 || st.DataEvicts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHeaderCapEvictsEntirely(t *testing.T) {
	c := New(4096, 2, 3)
	for i := int64(0); i < 5; i++ {
		c.Insert(1, i*4096, 4096, RemoteRef{VA: uint64(i)})
	}
	_, headers := c.Len()
	if headers != 3 {
		t.Fatalf("headers=%d, want cap 3", headers)
	}
	if b, _ := c.Lookup(1, 0); b != nil {
		t.Fatal("oldest header should be fully evicted")
	}
	if st := c.Stats(); st.TotalEvicts != 2 {
		t.Fatalf("total evicts %d, want 2", st.TotalEvicts)
	}
}

func TestLRUOrderRespectsAccess(t *testing.T) {
	c := New(4096, 2, 2)
	c.Insert(1, 0, 4096, RemoteRef{})
	c.Insert(1, 4096, 4096, RemoteRef{})
	c.Lookup(1, 0)                       // touch block 0: block 4096 is now LRU
	c.Insert(1, 8192, 4096, RemoteRef{}) // evicts 4096 (header too, cap 2)
	if _, hit := c.Lookup(1, 0); !hit {
		t.Fatal("recently-touched block evicted")
	}
	if b, _ := c.Lookup(1, 4096); b != nil {
		t.Fatal("LRU block survived")
	}
}

func TestSetRefAndDropRef(t *testing.T) {
	c := New(4096, 2, 8)
	ref := RemoteRef{VA: 7, Len: 4096}
	c.SetRef(3, 4096, ref)
	b, hit := c.Lookup(3, 4096)
	if hit || b == nil || b.Ref.VA != ref.VA || b.Ref.Len != ref.Len {
		t.Fatal("SetRef did not create an empty header with the ref")
	}
	c.DropRef(3, 4096)
	if b.Ref.VA != 0 {
		t.Fatal("DropRef failed")
	}
	c.DropRef(3, 999999) // unknown block: no-op
}

// TestRefsHeldByValue checks that a header keeps its own copy of a
// reference. The fetch path stamps its shard's failover Epoch on the
// reference it fetched after the fetch, then inserts it: that Epoch,
// with the capability, is what RefOf sees, and changing the caller's
// copy, or RefOf's, afterwards changes nothing cached. A refresh
// replaces the reference whole, a demoted header still counts a ref
// hit, and after DropRef it counts none.
func TestRefsHeldByValue(t *testing.T) {
	c := New(4096, 1, 4)
	fetched := RemoteRef{VA: 0x2000, Len: 4096, Cap: []byte{1, 2}}
	fetched.Epoch = 3
	c.Insert(1, 0, 4096, fetched)
	fetched.VA, fetched.Epoch = 0x9000, 9
	got := c.RefOf(1, 0)
	if got.VA != 0x2000 || got.Len != 4096 || got.Epoch != 3 || len(got.Cap) != 2 {
		t.Fatalf("RefOf = %+v, want VA 0x2000, Len 4096, Epoch 3 and the capability", got)
	}
	got.Epoch = 7
	if e := c.RefOf(1, 0).Epoch; e != 3 {
		t.Fatalf("cached Epoch %d after changing RefOf's copy, want 3", e)
	}

	c.SetRef(1, 0, RemoteRef{VA: 0x3000, Len: 2048})
	if r := c.RefOf(1, 0); r.VA != 0x3000 || r.Len != 2048 || r.Epoch != 0 || r.Cap != nil {
		t.Fatalf("after SetRef RefOf = %+v, want the new reference whole", r)
	}

	c.Insert(1, 4096, 4096, RemoteRef{}) // demotes block 0's data
	if b, hit := c.Lookup(1, 0); hit || b == nil || b.Ref.VA != 0x3000 {
		t.Fatalf("demoted header: hit %v, block %+v; want a miss keeping VA 0x3000", hit, b)
	}
	c.DropRef(1, 0)
	if r := c.RefOf(1, 0); r.VA != 0 || r.Cap != nil {
		t.Fatalf("after DropRef RefOf = %+v, want none", r)
	}
	c.Lookup(1, 0)
	if st := c.Stats(); st.RefHits != 1 || st.DataMisses != 2 {
		t.Fatalf("stats %+v, want 1 ref hit in 2 misses", st)
	}
	if r := c.RefOf(2, 0); r.VA != 0 {
		t.Fatalf("unknown block's RefOf = %+v, want none", r)
	}
}

func TestInsertRefreshesRef(t *testing.T) {
	c := New(4096, 4, 8)
	c.Insert(1, 0, 4096, RemoteRef{VA: 1})
	c.Insert(1, 0, 4096, RemoteRef{VA: 2})
	b, _ := c.Lookup(1, 0)
	if b.Ref.VA != 2 {
		t.Fatalf("ref VA = %d, want refreshed 2", b.Ref.VA)
	}
	// Insert without a ref keeps the old one.
	c.Insert(1, 0, 4096, RemoteRef{})
	if b.Ref.VA != 2 {
		t.Fatal("a ref-less insert clobbered the stored reference")
	}
}

func TestInvalidateFile(t *testing.T) {
	c := New(4096, 8, 16)
	c.Insert(1, 0, 4096, RemoteRef{})
	c.Insert(1, 4096, 4096, RemoteRef{})
	c.Insert(2, 0, 4096, RemoteRef{})
	c.InvalidateFile(1)
	data, headers := c.Len()
	if data != 1 || headers != 1 {
		t.Fatalf("data=%d headers=%d after invalidate", data, headers)
	}
	if _, hit := c.Lookup(2, 0); !hit {
		t.Fatal("unrelated file lost")
	}
}

func TestHeaderCapBelowDataCapRaised(t *testing.T) {
	c := New(4096, 8, 2)
	if c.headerCap != 8 {
		t.Fatalf("headerCap=%d, want raised to dataCap", c.headerCap)
	}
}

// Property: data blocks never exceed dataCap, headers never exceed
// headerCap, and every data block has a header.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(4096, 4, 12)
		for _, op := range ops {
			off := int64(op%64) * 4096
			switch op % 3 {
			case 0:
				c.Insert(1, off, 4096, RemoteRef{})
			case 1:
				c.Lookup(1, off)
			case 2:
				c.SetRef(1, off, RemoteRef{VA: uint64(op)})
			}
			data, headers := c.Len()
			if data > 4 || headers > 12 || data > headers {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with the MQ policy the same invariants hold.
func TestCapacityInvariantPropertyMQ(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(4096, 4, 12, WithPolicies(NewMQ(4, 16), NewMQ(4, 16)))
		for _, op := range ops {
			off := int64(op%64) * 4096
			if op%2 == 0 {
				c.Insert(1, off, 4096, RemoteRef{})
			} else {
				c.Lookup(1, off)
			}
			data, headers := c.Len()
			if data > 4 || headers > 12 || data > headers {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMQPromotesFrequentBlocks(t *testing.T) {
	mq := NewMQ(4, 1000)
	c := New(4096, 2, 8, WithPolicies(mq, NewLRU()))
	c.Insert(1, 0, 4096, RemoteRef{})
	for i := 0; i < 8; i++ {
		c.Lookup(1, 0) // hot: freq 9 -> queue 3
	}
	c.Insert(1, 4096, 4096, RemoteRef{})
	c.Insert(1, 8192, 4096, RemoteRef{}) // one of the cold blocks must go
	if _, hit := c.Lookup(1, 0); !hit {
		t.Fatal("MQ evicted the hot block over a cold one")
	}
}

func TestMQExpiryDemotes(t *testing.T) {
	mq := NewMQ(4, 4) // short lifetime
	// Make a hot element, then touch others until it expires downward.
	hot := &elem{owner: &Block{}}
	mq.Insert(hot)
	for i := 0; i < 8; i++ {
		mq.Touch(hot)
	}
	if hot.queue == 0 {
		t.Fatal("hot element not promoted")
	}
	// MQ decays one queue level per lifetime; enough cold traffic must
	// walk the hot element all the way down.
	cold := make([]*elem, 16)
	for i := range cold {
		cold[i] = &elem{owner: &Block{}}
		mq.Insert(cold[i])
	}
	if hot.queue != 0 {
		t.Fatalf("hot element in queue %d after expiry, want demoted to 0", hot.queue)
	}
}

func TestLRUVictimEmpty(t *testing.T) {
	l := NewLRU()
	if l.Victim() != nil || l.Len() != 0 {
		t.Fatal("empty LRU misbehaves")
	}
	m := NewMQ(3, 10)
	if m.Victim() != nil || m.Len() != 0 {
		t.Fatal("empty MQ misbehaves")
	}
}
