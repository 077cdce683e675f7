package rpc

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"danas/internal/fsim"
	"danas/internal/udpip"
	"danas/internal/wire"
)

// drcService answers each request from reply storage of its own and
// counts its executions by XID. A request whose XID is in rich gets a
// reply carrying a name and a payload, which a DRC entry cannot hold.
type drcService struct {
	hdr  wire.Header
	runs []int
	rich map[uint64]bool
}

// richPayload is the payload of a rich reply.
type richPayload struct{ xid uint64 }

func (s *drcService) Serve(w *Worker) bool {
	x := w.Req.Hdr.XID
	s.runs[x]++
	s.hdr = wire.Header{Op: w.Req.Hdr.Op, XID: x, Status: wire.StatusOK, Offset: int64(x), Length: 3 * int64(x), Flags: 1, Verifier: x ^ 0x5a}
	w.Reply = Reply{Hdr: &s.hdr, PayloadBytes: int64(x % 100), Ref: fsim.BlockRef{File: 7, Off: int64(x), Len: 4096}}
	if s.rich[x] {
		s.hdr.Name = fmt.Sprintf("name-%d", x)
		w.Reply.Payload = &richPayload{xid: x}
	}
	return true
}

// drcReplySeen is what a raw socket in the client's place saw of one
// reply.
type drcReplySeen struct {
	hdr     wire.Header
	payload any
	bytes   int64
	direct  bool
}

// TestDRCAcrossItsLimit drives drcLimit+200 requests through one
// server, so the cache's ring wraps, and then sends duplicates: of a
// plain reply still cached (answered with the same header, wire bytes
// and tag, unexecuted), of a rich reply installed after the wrap
// (answered whole from the side table), and of a request whose slot was
// overwritten (executed again). After ResetDRC the same ring and index
// refill, and once full a request allocates nothing.
func TestDRCAcrossItsLimit(t *testing.T) {
	const n = drcLimit + 200
	const overwritten, rich, tagged, tag = 50, drcLimit + 100, drcLimit + 150, 77
	r := newRig(t, echoHandler)
	svc := &drcService{runs: make([]int, n+2*drcLimit+200), rich: map[uint64]bool{overwritten: true, rich: true}}
	srv := NewServiceServer(r.server.stack, 2050, 1, func(*Worker) Service { return svc })
	raw := r.clientStack.Socket(3000)
	var last drcReplySeen
	replies := 0
	raw.Listen(func(d *udpip.Datagram) bool {
		m := d.Body.(*callMsg)
		last = drcReplySeen{hdr: m.Hdr, payload: m.Payload, bytes: d.Bytes, direct: d.Direct}
		replies++
		msgPools.Of(r.s).Release(m)
		return true
	})
	pool := msgPools.Of(r.s)
	// call sends one request and runs the simulation until it is
	// answered, returning the reply.
	call := func(xid, replyTag uint64) drcReplySeen {
		hdr := wire.Header{Op: wire.OpRead, XID: xid}
		before := replies
		raw.SendToAsync(r.server.stack, 2050, int64(hdr.WireSize()), pool.Copy(&callMsg{Hdr: hdr, replyTag: replyTag}), 0)
		r.s.Run()
		if replies != before+1 {
			t.Fatalf("xid %d: %d replies, want 1", xid, replies-before)
		}
		return last
	}

	orig := map[uint64]drcReplySeen{}
	for x := uint64(1); x <= n; x++ {
		var tg uint64
		if x == tagged {
			tg = tag
		}
		got := call(x, tg)
		if x == overwritten || x == rich || x == tagged || x == n {
			orig[x] = got
		}
	}
	if len(srv.drc) != drcLimit || len(srv.drcRich) != 1 {
		t.Errorf("after %d requests the cache indexes %d and keeps %d rich replies, want %d and 1", n, len(srv.drc), len(srv.drcRich), drcLimit)
	}
	if h := orig[rich].hdr; h.Name != fmt.Sprintf("name-%d", rich) || orig[rich].payload.(*richPayload).xid != rich {
		t.Fatalf("rich reply %+v with payload %v", h, orig[rich].payload)
	}

	// A duplicate of a cached request is answered from the cache with
	// the original reply, under the original tag.
	r.clientNIC.PrePost(tag, tagged%100) // the reply's payload bytes
	for _, x := range []uint64{tagged, rich, n} {
		dup := call(x, 0)
		want := orig[x]
		if x == tagged {
			want.direct = true
		}
		if !reflect.DeepEqual(dup, want) {
			t.Errorf("duplicate of xid %d answered with %+v, want the original %+v", x, dup, want)
		}
		if svc.runs[x] != 1 {
			t.Errorf("xid %d executed %d times, want once", x, svc.runs[x])
		}
	}
	if r.clientNIC.PrePosted() != 0 {
		t.Error("the cached reply did not carry its request's tag")
	}
	if srv.Duplicates != 3 {
		t.Fatalf("%d duplicates, want 3", srv.Duplicates)
	}
	// A request whose slot later requests took is executed again.
	if dup := call(overwritten, 0); !reflect.DeepEqual(dup.hdr, orig[overwritten].hdr) || svc.runs[overwritten] != 2 || srv.Duplicates != 3 {
		t.Fatalf("overwritten xid: reply %+v, %d executions, %d duplicates; want a fresh reply, 2 and 3", dup.hdr, svc.runs[overwritten], srv.Duplicates)
	}

	// A reset cache forgets every request, and refills the same ring.
	ring := &srv.drcRing[0]
	srv.ResetDRC()
	if call(n, 0); svc.runs[n] != 2 {
		t.Fatalf("after a reset xid %d executed %d times, want 2", n, svc.runs[n])
	}
	for x := uint64(n + 1); x <= n+drcLimit; x++ {
		call(x, 0)
	}
	if len(srv.drc) != drcLimit || len(srv.drcRich) != 0 || &srv.drcRing[0] != ring {
		t.Fatalf("after refilling, the cache indexes %d, keeps %d rich replies, same ring %v; want %d, 0, true",
			len(srv.drc), len(srv.drcRich), &srv.drcRing[0] == ring, drcLimit)
	}
	if call(n+1, 0); svc.runs[n+1] != 1 || svc.runs[n] != 2 {
		t.Fatalf("after refilling, xid %d executed %d times and xid %d %d times, want 1 and 2", n+1, svc.runs[n+1], n, svc.runs[n])
	}

	// With the ring full, each request overwrites a slot in place.
	next := uint64(n + drcLimit)
	round := func() { next++; call(next, 0) }
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("a request through a full cache allocates %.1f times, want 0", got)
	}
}

// TestDRCHoldsNoPointers walks the cache's key and entry types: neither
// may hold a pointer, slice, string, map, interface, channel or func,
// or the collector scans the whole ring and index on every cycle. Rich
// replies go to the side table instead.
func TestDRCHoldsNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[drcKey](), reflect.TypeFor[drcEntry]()} {
		if path := pointerField(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
	t.Logf("DRC entry: %d bytes, key: %d bytes", unsafe.Sizeof(drcEntry{}), unsafe.Sizeof(drcKey{}))
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

// TestDRCPagesItsRing checks that the ring is paged in as it fills: a
// server that has seen a few requests holds one chunk, the next chunk
// comes with the first request past it, and a reset keeps the chunks
// for the refill.
func TestDRCPagesItsRing(t *testing.T) {
	r := newRig(t, echoHandler)
	svc := &drcService{runs: make([]int, 2*drcChunkLen+2)}
	srv := NewServiceServer(r.server.stack, 2050, 1, func(*Worker) Service { return svc })
	raw := r.clientStack.Socket(3000)
	raw.Listen(func(d *udpip.Datagram) bool { msgPools.Of(r.s).Release(d.Body.(*callMsg)); return true })
	pool := msgPools.Of(r.s)
	send := func(from, to uint64) {
		for x := from; x <= to; x++ {
			hdr := wire.Header{Op: wire.OpRead, XID: x}
			raw.SendToAsync(r.server.stack, 2050, int64(hdr.WireSize()), pool.Copy(&callMsg{Hdr: hdr}), 0)
			r.s.Run()
		}
	}
	chunks := func() (n int) {
		for _, c := range srv.drcRing {
			if c != nil {
				n++
			}
		}
		return n
	}
	if send(1, 3); chunks() != 1 {
		t.Fatalf("3 requests hold %d chunks, want 1", chunks())
	}
	if send(4, drcChunkLen); chunks() != 1 {
		t.Fatalf("%d requests hold %d chunks, want 1", drcChunkLen, chunks())
	}
	if send(drcChunkLen+1, drcChunkLen+1); chunks() != 2 {
		t.Fatalf("%d requests hold %d chunks, want 2", drcChunkLen+1, chunks())
	}
	first := srv.drcRing[0]
	srv.ResetDRC()
	if send(drcChunkLen+2, drcChunkLen+2); chunks() != 2 || srv.drcRing[0] != first || len(srv.drc) != 1 {
		t.Fatalf("after a reset: %d chunks, first chunk kept %v, %d indexed; want 2, true, 1",
			chunks(), srv.drcRing[0] == first, len(srv.drc))
	}
	if svc.runs[1] != 1 || svc.runs[drcChunkLen+2] != 1 {
		t.Fatalf("runs %v, want each request once", svc.runs)
	}
}
