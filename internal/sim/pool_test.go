package sim

import "testing"

type poolRec struct {
	n    int
	next *poolRec
}

// TestPoolKeyOfScheduler checks that a key names one pool per
// scheduler: the same pool on every lookup, another on another
// scheduler or under another key.
func TestPoolKeyOfScheduler(t *testing.T) {
	k1, k2 := NewPoolKey[poolRec](), NewPoolKey[poolRec]()
	s, u := New(), New()
	p := k1.Of(s)
	if p == nil || k1.Of(s) != p {
		t.Fatal("a key's pool differs between lookups on one scheduler")
	}
	if k1.Of(u) == p || k2.Of(s) == p {
		t.Fatal("another scheduler or another key shares the pool")
	}
}

// TestPoolRecycles checks that Get hands back the last record Put, as
// it was left, or a new zero one; that Copy fills a record from a
// value; and that Release clears a record before keeping it.
func TestPoolRecycles(t *testing.T) {
	var p Pool[poolRec]
	a := p.Get()
	if a == nil || *a != (poolRec{}) {
		t.Fatalf("Get on an empty pool = %+v, want a new zero record", a)
	}
	a.n = 7
	p.Put(a)
	if b := p.Get(); b != a || b.n != 7 {
		t.Fatalf("Get after Put = %p %+v, want the record put, as left", b, b)
	}
	c := p.Copy(&poolRec{n: 3, next: a})
	if c == a || c.n != 3 || c.next != a {
		t.Fatalf("Copy = %+v, want a new record holding the value", c)
	}
	p.Release(c)
	if d := p.Get(); d != c || *d != (poolRec{}) {
		t.Fatalf("Get after Release = %+v, want the released record, cleared", d)
	}
}
