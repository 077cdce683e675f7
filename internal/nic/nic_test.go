package nic

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"danas/internal/host"
	"danas/internal/netsim"
	"danas/internal/sim"
)

// rig is a two-host test cluster.
type rig struct {
	s      *sim.Scheduler
	p      *host.Params
	ha, hb *host.Host
	na, nb *NIC
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	p := host.Default()
	fab := netsim.NewFabric(s, p.SwitchLatency)
	cfg := netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}
	ha := host.New(s, "a", p)
	hb := host.New(s, "b", p)
	na := New(ha, fab.AddPort("a", cfg))
	nb := New(hb, fab.AddPort("b", cfg))
	return &rig{s: s, p: p, ha: ha, hb: hb, na: na, nb: nb}
}

func TestMessageDelivery(t *testing.T) {
	r := newRig(t)
	ep := r.nb.NewEndpoint(1, Poll)
	var got *Message
	r.s.Go("recv", func(p *sim.Proc) { m := ep.Recv(p); got = &m })
	r.s.Go("send", func(p *sim.Proc) {
		r.na.Send(p, &Message{To: r.nb, Port: 1, HeaderBytes: 64, PayloadBytes: 4096, Header: "h"})
	})
	r.s.Run()
	if got == nil || got.Header != "h" || got.From != r.na {
		t.Fatalf("message not delivered correctly: %+v", got)
	}
	if got.Direct {
		t.Fatal("untagged message must not be direct-placed")
	}
	st := r.na.StatsSnapshot()
	if st.MsgsSent != 1 || st.FragsSent != 2 { // 64+4096 bytes -> 2 GM fragments
		t.Fatalf("sender stats %+v", st)
	}
}

func TestMessageFragmentation(t *testing.T) {
	r := newRig(t)
	ep := r.nb.NewEndpoint(1, Poll)
	r.s.Go("recv", func(p *sim.Proc) { ep.Recv(p) })
	r.s.Go("send", func(p *sim.Proc) {
		r.na.Send(p, &Message{To: r.nb, Port: 1, PayloadBytes: 64 * 1024})
	})
	r.s.Run()
	if st := r.nb.StatsSnapshot(); st.FragsRecv != 16 {
		t.Fatalf("64KB should arrive as 16 GM fragments, got %d", st.FragsRecv)
	}
}

func TestEtherMTUFragSizeOverride(t *testing.T) {
	r := newRig(t)
	ep := r.nb.NewEndpoint(1, Intr)
	r.s.Go("recv", func(p *sim.Proc) { ep.Recv(p) })
	r.s.Go("send", func(p *sim.Proc) {
		r.na.Send(p, &Message{To: r.nb, Port: 1, PayloadBytes: 9216, FragSize: r.p.EtherMTU})
	})
	r.s.Run()
	if st := r.nb.StatsSnapshot(); st.FragsRecv != 1 {
		t.Fatalf("9KB ether packet should be one frame, got %d", st.FragsRecv)
	}
}

func TestRoundTripLatencyPollVsIntr(t *testing.T) {
	measure := func(mode NotifyMode) sim.Duration {
		r := newRig(t)
		epA := r.na.NewEndpoint(1, mode)
		epB := r.nb.NewEndpoint(1, mode)
		var rtt sim.Duration
		r.s.Go("b", func(p *sim.Proc) {
			epB.Recv(p)
			r.nb.Send(p, &Message{To: r.na, Port: 1, HeaderBytes: 1})
		})
		r.s.Go("a", func(p *sim.Proc) {
			start := p.Now()
			r.na.Send(p, &Message{To: r.nb, Port: 1, HeaderBytes: 1})
			epA.Recv(p)
			rtt = p.Now().Sub(start)
		})
		r.s.Run()
		return rtt
	}
	poll, intr := measure(Poll), measure(Intr)
	if poll <= 0 || intr <= poll {
		t.Fatalf("rtt poll=%v intr=%v; interrupt mode must be slower", poll, intr)
	}
	// Blocking adds roughly interrupt+wakeup-poll per receive, two
	// receives per round trip.
	delta := intr - poll
	perRecv := r0(t, delta/2)
	want := host.Default().InterruptCost + host.Default().SchedWakeup - host.Default().PollGet
	if perRecv < want-2*sim.Microsecond || perRecv > want+2*sim.Microsecond {
		t.Fatalf("per-receive blocking penalty %v, want ~%v", perRecv, want)
	}
}

func r0(t *testing.T, d sim.Duration) sim.Duration { t.Helper(); return d }

func TestPrePostDirectPlacement(t *testing.T) {
	r := newRig(t)
	ep := r.nb.NewEndpoint(1, Intr)
	var got *Message
	r.s.Go("recv", func(p *sim.Proc) { m := ep.Recv(p); got = &m })
	r.s.Go("send", func(p *sim.Proc) {
		r.nb.PrePost(77, 8192)
		r.na.Send(p, &Message{To: r.nb, Port: 1, HeaderBytes: 128, PayloadBytes: 8192, Tag: 77})
	})
	r.s.Run()
	if got == nil || !got.Direct {
		t.Fatal("tagged message should be placed directly into pre-posted buffer")
	}
	if st := r.nb.StatsSnapshot(); st.DirectPlacements != 1 {
		t.Fatalf("direct placements = %d", st.DirectPlacements)
	}
	if r.nb.PrePosted() != 0 {
		t.Fatal("pre-posted buffer not consumed")
	}
}

func TestPrePostTagMismatchFallsBack(t *testing.T) {
	r := newRig(t)
	ep := r.nb.NewEndpoint(1, Intr)
	var got *Message
	r.s.Go("recv", func(p *sim.Proc) { m := ep.Recv(p); got = &m })
	r.s.Go("send", func(p *sim.Proc) {
		r.nb.PrePost(77, 8192)
		r.na.Send(p, &Message{To: r.nb, Port: 1, HeaderBytes: 128, PayloadBytes: 8192, Tag: 99})
	})
	r.s.Run()
	if got == nil || got.Direct {
		t.Fatal("mismatched tag must not be direct-placed")
	}
	if r.nb.PrePosted() != 1 {
		t.Fatal("unmatched pre-post should remain")
	}
	r.nb.CancelPrePost(77)
	if r.nb.PrePosted() != 0 {
		t.Fatal("cancel failed")
	}
}

func TestGetSuccess(t *testing.T) {
	r := newRig(t)
	seg := r.nb.TPT.Export(4096)
	var st Status = -1
	var doneAt sim.Time
	r.s.Go("client", func(p *sim.Proc) {
		r.na.RDMA(p, Op{Kind: Get, Target: r.nb, VA: seg.VA, Len: 4096, Notify: Poll,
			Done: func(s Status) { st = s; doneAt = r.s.Now() }})
	})
	r.s.Run()
	if st != StatusOK {
		t.Fatalf("get status %v", st)
	}
	if doneAt == 0 {
		t.Fatal("completion never ran")
	}
	stats := r.nb.StatsSnapshot()
	if stats.GetsServed != 1 || stats.Exceptions != 0 {
		t.Fatalf("server stats %+v", stats)
	}
	// The server host CPU must not be involved (beyond TLB misses).
	if busy := r.hb.CPU.BusyTime(); busy > 2*r.p.InterruptCost {
		t.Fatalf("server CPU busy %v on a get; ORDMA must bypass it", busy)
	}
}

func TestGetNotExportedException(t *testing.T) {
	r := newRig(t)
	var st Status = -1
	r.s.Go("client", func(p *sim.Proc) {
		r.na.RDMA(p, Op{Kind: Get, Target: r.nb, VA: 0xdead000, Len: 4096, Notify: Poll,
			Done: func(s Status) { st = s }})
	})
	r.s.Run()
	if st != StatusNotExported {
		t.Fatalf("status %v, want not-exported", st)
	}
	if stats := r.nb.StatsSnapshot(); stats.Exceptions != 1 {
		t.Fatalf("exceptions = %d, want 1", stats.Exceptions)
	}
}

func TestGetAfterInvalidateFaults(t *testing.T) {
	r := newRig(t)
	seg := r.nb.TPT.Export(8192)
	r.nb.TPT.Invalidate(seg)
	var st Status = -1
	r.s.Go("client", func(p *sim.Proc) {
		r.na.RDMA(p, Op{Kind: Get, Target: r.nb, VA: seg.VA, Len: 8192, Notify: Poll,
			Done: func(s Status) { st = s }})
	})
	r.s.Run()
	if st != StatusNotExported {
		t.Fatalf("status %v, want not-exported after invalidate", st)
	}
}

func TestGetLockedSegmentFaults(t *testing.T) {
	r := newRig(t)
	seg := r.nb.TPT.Export(4096)
	r.nb.TPT.Lock(seg)
	var st Status = -1
	r.s.Go("client", func(p *sim.Proc) {
		r.na.RDMA(p, Op{Kind: Get, Target: r.nb, VA: seg.VA, Len: 4096, Notify: Poll,
			Done: func(s Status) { st = s }})
	})
	r.s.Run()
	if st != StatusLocked {
		t.Fatalf("status %v, want locked", st)
	}
	r.nb.TPT.Unlock(seg)
	if seg.Locked() {
		t.Fatal("unlock did not release")
	}
}

func TestCapabilityEnforcement(t *testing.T) {
	r := newRig(t)
	r.nb.TPT.UseCapabilities = true
	seg := r.nb.TPT.Export(4096)
	if len(seg.Cap) == 0 {
		t.Fatal("capability not issued")
	}
	var good, bad Status = -1, -1
	r.s.Go("client", func(p *sim.Proc) {
		sig := sim.NewSignal(r.s)
		r.na.RDMA(p, Op{Kind: Get, Target: r.nb, VA: seg.VA, Len: 4096, Cap: seg.Cap, Notify: Poll,
			Done: func(s Status) { good = s; sig.Fire() }})
		sig.Wait(p)
		r.na.RDMA(p, Op{Kind: Get, Target: r.nb, VA: seg.VA, Len: 4096, Cap: []byte("forged"), Notify: Poll,
			Done: func(s Status) { bad = s }})
	})
	r.s.Run()
	if good != StatusOK {
		t.Fatalf("valid capability rejected: %v", good)
	}
	if bad != StatusBadCapability {
		t.Fatalf("forged capability accepted: %v", bad)
	}
	if st := r.nb.StatsSnapshot(); st.CapRejects != 1 {
		t.Fatalf("cap rejects = %d", st.CapRejects)
	}
}

func TestPutSuccess(t *testing.T) {
	r := newRig(t)
	seg := r.nb.TPT.Export(16384)
	var st Status = -1
	r.s.Go("client", func(p *sim.Proc) {
		r.na.RDMA(p, Op{Kind: Put, Target: r.nb, VA: seg.VA, Len: 16384, Notify: Poll,
			Done: func(s Status) { st = s }})
	})
	r.s.Run()
	if st != StatusOK {
		t.Fatalf("put status %v", st)
	}
	if stats := r.nb.StatsSnapshot(); stats.PutsServed != 1 {
		t.Fatalf("puts served = %d", stats.PutsServed)
	}
}

func TestPutToUnexportedFaults(t *testing.T) {
	r := newRig(t)
	var st Status = -1
	r.s.Go("client", func(p *sim.Proc) {
		r.na.RDMA(p, Op{Kind: Put, Target: r.nb, VA: 0xbad000, Len: 4096, Notify: Poll,
			Done: func(s Status) { st = s }})
	})
	r.s.Run()
	if st != StatusNotExported {
		t.Fatalf("status %v", st)
	}
}

// TestTLBEvictsLeastRecentlyUsed pins the TLB's replacement order over
// exported pages: a hit refreshes a page, a miss beyond capacity evicts
// the least recently touched page, and a shot-down page frees its slot.
// Touching or shooting down an unmapped page does nothing.
func TestTLBEvictsLeastRecentlyUsed(t *testing.T) {
	r := newRig(t)
	// pg[k] is the page of the k-th one-page export, k = 1..9.
	pg := make([]uint64, 10)
	for k := 1; k < len(pg); k++ {
		pg[k] = pageOf(r.nb.TPT.Export(host.PageSize).VA)
	}
	r.nb.tlb = newTLB(&r.nb.TPT.pt, 3)
	tl := r.nb.tlb
	steps := []struct {
		k   int
		hit bool
	}{
		{1, false}, {2, false}, {3, false}, // MRU..LRU: 3 2 1
		{1, true},            // 1 3 2
		{4, false},           // 4 1 3, evicts 2
		{2, false},           // 2 4 1, evicts 3
		{3, false},           // 3 2 4, evicts 1
		{4, true}, {2, true}, // 2 4 3
	}
	for i, st := range steps {
		if got := tl.touch(pg[st.k]); got != st.hit {
			t.Fatalf("step %d: touch(%d) hit=%v, want %v", i, st.k, got, st.hit)
		}
	}
	tl.evict(pg[4]) // 2 3
	tl.evict(pg[9]) // not loaded: no-op
	if tl.len() != 2 {
		t.Fatalf("TLB holds %d entries after shoot-down, want 2", tl.len())
	}
	// Unmapped pages: below the export space and past its end.
	for _, un := range []uint64{3, pg[9] + 1} {
		if tl.touch(un) || tl.len() != 2 {
			t.Fatalf("touch of unmapped page %d hit or loaded it: %d entries", un, tl.len())
		}
		tl.evict(un)
		if tl.len() != 2 {
			t.Fatalf("evict of unmapped page %d left %d entries, want 2", un, tl.len())
		}
	}
	for i, st := range []struct {
		k   int
		hit bool
	}{{5, false}, {3, true}, {6, false}, {2, false}} { // 5 2 3; 3 5 2; 6 3 5, evicts 2; 2 6 3
		if got := tl.touch(pg[st.k]); got != st.hit {
			t.Fatalf("refill %d: touch(%d) hit=%v, want %v", i, st.k, got, st.hit)
		}
	}
	if tl.len() != 3 {
		t.Fatalf("TLB holds %d entries, capacity 3", tl.len())
	}
}

func TestTLBMissChargesHostAndRefills(t *testing.T) {
	r := newRig(t)
	r.p.NICTLBSize = 2
	r.nb.tlb = newTLB(&r.nb.TPT.pt, 2)
	seg := r.nb.TPT.Export(4 * host.PageSize) // 4 pages > TLB size 2
	run := func() Status {
		var st Status = -1
		sig := sim.NewSignal(r.s)
		r.s.Go("client", func(p *sim.Proc) {
			r.na.RDMA(p, Op{Kind: Get, Target: r.nb, VA: seg.VA, Len: 4 * host.PageSize, Notify: Poll,
				Done: func(s Status) { st = s; sig.Fire() }})
		})
		r.s.Run()
		return st
	}
	if st := run(); st != StatusOK {
		t.Fatalf("get failed: %v", st)
	}
	stats := r.nb.StatsSnapshot()
	if stats.TLBMisses != 4 {
		t.Fatalf("TLB misses = %d, want 4 (cold)", stats.TLBMisses)
	}
	if r.nb.tlb.len() != 2 {
		t.Fatalf("TLB holds %d entries, capacity 2", r.nb.tlb.len())
	}
	// Second access: working set exceeds TLB, so misses continue.
	if st := run(); st != StatusOK {
		t.Fatalf("second get failed: %v", st)
	}
	if s2 := r.nb.StatsSnapshot(); s2.TLBMisses <= stats.TLBMisses {
		t.Fatal("thrashing working set should keep missing")
	}
}

func TestTLBHitsWhenSized(t *testing.T) {
	r := newRig(t)
	seg := r.nb.TPT.Export(host.PageSize)
	run := func() {
		sig := sim.NewSignal(r.s)
		r.s.Go("client", func(p *sim.Proc) {
			r.na.RDMA(p, Op{Kind: Get, Target: r.nb, VA: seg.VA, Len: host.PageSize, Notify: Poll,
				Done: func(Status) { sig.Fire() }})
		})
		r.s.Run()
	}
	run()
	run()
	st := r.nb.StatsSnapshot()
	if st.TLBMisses != 1 || st.TLBHits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1/1", st.TLBMisses, st.TLBHits)
	}
}

func TestGetQuirkSlowsLargeGets(t *testing.T) {
	measure := func(quirk int64) sim.Duration {
		r := newRig(t)
		r.p.GMGetQuirkSize = quirk
		seg := r.nb.TPT.Export(64 * 1024)
		var done sim.Time
		r.s.Go("client", func(p *sim.Proc) {
			r.na.RDMA(p, Op{Kind: Get, Target: r.nb, VA: seg.VA, Len: 64 * 1024, Notify: Poll,
				Done: func(Status) { done = r.s.Now() }})
		})
		r.s.Run()
		return sim.Duration(done)
	}
	clean := measure(0)
	buggy := measure(64 * 1024)
	if buggy <= clean {
		t.Fatalf("quirk did not slow 64KB get: clean=%v buggy=%v", clean, buggy)
	}
}

func TestSegmentsDoNotSharePages(t *testing.T) {
	r := newRig(t)
	a := r.nb.TPT.Export(100) // sub-page
	b := r.nb.TPT.Export(100)
	if pageOf(a.VA) == pageOf(b.VA) {
		t.Fatal("segments share a page; invalidation would leak across segments")
	}
	// A reference spanning the two segments must fault.
	if _, st := r.nb.TPT.lookup(a.VA, int64(b.VA-a.VA)+50, nil); st == StatusOK {
		t.Fatal("cross-segment reference validated")
	}
}

func TestExportCounts(t *testing.T) {
	r := newRig(t)
	seg := r.nb.TPT.Export(10 * host.PageSize)
	if r.nb.TPT.Entries() != 10 {
		t.Fatalf("entries = %d, want 10", r.nb.TPT.Entries())
	}
	r.nb.TPT.Invalidate(seg)
	r.nb.TPT.Invalidate(seg) // idempotent
	if r.nb.TPT.Entries() != 0 {
		t.Fatalf("entries = %d after invalidate", r.nb.TPT.Entries())
	}
}

// resident lists the TLB's pages from most to least recently used.
func (t *tlb) resident() []uint64 {
	var pgs []uint64
	for i := t.ent[0].next; i != 0; i = t.ent[i].next {
		pgs = append(pgs, t.ent[i].pg)
	}
	return pgs
}

// TestWarmTLBDeterministicWhenOverfull warms a TLB smaller than the
// export set after each export, as a cluster warming one file after
// another does, and checks that every run leaves the same pages resident:
// the most recently exported ones, in export order.
func TestWarmTLBDeterministicWhenOverfull(t *testing.T) {
	warm := func() []uint64 {
		r := newRig(t)
		r.nb.tlb = newTLB(&r.nb.TPT.pt, 6)
		for i := 0; i < 5; i++ {
			r.nb.TPT.Export(4 * host.PageSize)
			r.nb.TPT.WarmTLB()
		}
		r.nb.TPT.WarmTLB() // nothing new: a no-op
		return r.nb.tlb.resident()
	}
	want := warm()
	last := pageOf(1<<20) + 5*4 - 1
	for i, pg := range want {
		if pg != last-uint64(i) {
			t.Fatalf("resident pages %v, want the 6 highest (%d down), MRU first", want, last)
		}
	}
	for run := 0; run < 20; run++ {
		if got := warm(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: resident pages %v, want %v", run, got, want)
		}
	}
}

// TestSteadyStreamAllocatesNothing sends message fragments and serves
// RDMA gets over a star until the NIC pools and every station's and
// queue's ring have grown, then checks a further round allocates nothing:
// each fragment reuses a flight of its origin NIC, the get reuses an RDMA
// record of the initiator's, and every station completion and wake lands
// in storage the kernel already holds. The messages and the get's
// descriptor are the caller's and are reused.
func TestSteadyStreamAllocatesNothing(t *testing.T) {
	r := newRig(t)
	delivered := 0
	r.nb.BindHandler(1, func(*Message) { delivered++ })
	msgs := make([]*Message, 4)
	for i := range msgs {
		msgs[i] = &Message{To: r.nb, Port: 1, HeaderBytes: 64, PayloadBytes: 16 << 10}
	}
	seg := r.nb.TPT.Export(32 << 10)
	r.nb.TPT.WarmTLB()
	got := 0
	op := Op{Kind: Get, Target: r.nb, VA: seg.VA, Len: 32 << 10, Notify: Poll,
		Done: func(st Status) {
			if st == StatusOK {
				got++
			}
		}}
	round := func() {
		for _, m := range msgs {
			r.na.SendAsync(m)
		}
		r.na.RDMAAsync(op)
		r.s.Run()
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a round of %d messages and a get allocated %.1f times, want 0", len(msgs), allocs)
	}
	if want := 25 * len(msgs); delivered != want || got != 25 {
		t.Fatalf("delivered %d messages and %d gets, want %d and 25", delivered, got, want)
	}
}

// TestLateFramesLeaveReusedOpAlone times a get out a nanosecond before
// its last frame arrives: once with data frames still on their way, and
// once with the target's exception on its way. The timeout's completion
// issues a new get at once from the same NIC, which would take the
// timed-out get's record were it free again; it asks for the other
// outcome (exported memory after an exception, unexported after data),
// so a late frame completing it shows as the wrong status. The late
// frame must be dropped: both gets complete exactly once, with their
// own status, and once the last frame is in, both records are back on
// the free list.
func TestLateFramesLeaveReusedOpAlone(t *testing.T) {
	const bogus = 0xdead000
	// run issues the first get at time 0 with the given timeout (none if
	// 0) and returns each get's completions and when the first came.
	run := func(exported bool, timeout sim.Duration) (got map[string][]Status, at sim.Time, free int) {
		r := newRig(t)
		seg := r.nb.TPT.Export(64 << 10)
		first, next := Op{Kind: Get, Target: r.nb, VA: seg.VA, Len: 64 << 10, Notify: Poll, Timeout: timeout},
			Op{Kind: Get, Target: r.nb, VA: bogus, Len: 4096, Notify: Poll}
		if !exported {
			first.VA, first.Len, next.VA = bogus, 4096, seg.VA
		}
		got = map[string][]Status{}
		next.Done = func(st Status) { got["next"] = append(got["next"], st) }
		first.Done = func(st Status) {
			got["first"] = append(got["first"], st)
			at = r.s.Now()
			if timeout > 0 {
				r.na.RDMAAsync(next)
			}
		}
		r.na.RDMAAsync(first)
		r.s.Run()
		return got, at, len(r.na.ops)
	}
	for _, c := range []struct {
		name     string
		exported bool
		first    Status
		next     Status
	}{
		{"late data", true, StatusOK, StatusNotExported},
		{"late exception", false, StatusNotExported, StatusOK},
	} {
		_, arrives, _ := run(c.exported, 0)
		got, _, free := run(c.exported, sim.Duration(arrives)-1)
		want := map[string][]Status{"first": {StatusTimeout}, "next": {c.next}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: completions %v, want %v (the first get's %v dropped)", c.name, got, want, c.first)
		}
		if free != 2 {
			t.Errorf("%s: %d RDMA records free after the last frame, want both", c.name, free)
		}
	}
}

// TestRecvMessageOutlivesItsRecord checks that a message Recv returned
// is the receiver's own copy: later sends reuse the record it arrived
// in, and the copy keeps its fields.
func TestRecvMessageOutlivesItsRecord(t *testing.T) {
	r := newRig(t)
	ep := r.nb.NewEndpoint(1, Poll)
	var first, second Message
	r.s.Go("recv", func(p *sim.Proc) {
		first = ep.Recv(p)
		if len(r.na.msgs) != 1 {
			t.Errorf("sender holds %d free records after delivery, want 1", len(r.na.msgs))
		}
		r.na.SendAsync(&Message{To: r.nb, Port: 1, HeaderBytes: 16, Header: "second"})
		if len(r.na.msgs) != 0 {
			t.Error("the second send did not reuse the first message's record")
		}
		second = ep.Recv(p)
	})
	r.na.SendAsync(&Message{To: r.nb, Port: 1, HeaderBytes: 64, PayloadBytes: 4096, Header: "first", Payload: 7})
	r.s.Run()
	if first.Header != "first" || first.Payload != 7 || first.PayloadBytes != 4096 || first.From != r.na {
		t.Fatalf("first message after its record was reused: %+v", first)
	}
	if second.Header != "second" || second.PayloadBytes != 0 {
		t.Fatalf("second message: %+v", second)
	}
}

// TestListenServesLikeRecvLoop runs twin rigs whose endpoint is served,
// per message, by CPU work: a process calling Recv, serving with Compute
// and calling Recv again, or a Listen loop whose handler serves by
// callbacks (host.Job) and finishes later (Resume). Bursts arrive while
// the server is busy, in both completion modes. Both twins must log each
// delivery and each charge's finish at the same instant and after the
// same number of executed events.
func TestListenServesLikeRecvLoop(t *testing.T) {
	costs := []sim.Duration{25 * sim.Microsecond, 0, 9 * sim.Microsecond}
	sends := []sim.Time{0, 0, 0, 4000, 30000, 300000, 300000}
	for _, mode := range []NotifyMode{Poll, Intr} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(listen bool) string {
				r := newRig(t)
				ep := r.nb.NewEndpoint(1, mode)
				var log []string
				note := func(what string) {
					log = append(log, fmt.Sprintf("%s@%d/%d", what, r.s.Now(), r.s.Events()))
				}
				if listen {
					var l *Listener
					i := 0 // charges made for the message at hand
					j := &host.Job{H: r.hb}
					serve := func() bool {
						j.Resume()
						for {
							if i > 0 {
								note(fmt.Sprintf("charged %d", i))
							}
							if i == len(costs) {
								return true
							}
							i++
							if !j.Compute(costs[i-1]) {
								return false
							}
						}
					}
					j.Step = func() {
						if serve() {
							l.Resume()
						}
					}
					l = ep.Listen(func(m Message) bool {
						note(fmt.Sprintf("got %v", m.Header))
						i = 0
						return serve()
					})
				} else {
					r.s.Go("recv", func(p *sim.Proc) {
						for {
							m := ep.Recv(p)
							note(fmt.Sprintf("got %v", m.Header))
							for i, c := range costs {
								r.hb.Compute(p, c)
								note(fmt.Sprintf("charged %d", i+1))
							}
						}
					})
				}
				for i, at := range sends {
					r.s.At(at, func() {
						r.na.SendAsync(&Message{To: r.nb, Port: 1, HeaderBytes: 64, PayloadBytes: 1024, Header: i})
					})
				}
				r.s.Run()
				return strings.Join(log, " ")
			}
			want := run(false)
			if got := run(true); got != want {
				t.Fatalf("Listen log\n got %s\nwant %s (Recv process)", got, want)
			}
			if !strings.Contains(want, fmt.Sprintf("got %d@", len(sends)-1)) {
				t.Fatalf("not every message was served: %s", want)
			}
		})
	}
}
