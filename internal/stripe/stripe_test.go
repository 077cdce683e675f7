package stripe

import (
	"fmt"
	"testing"

	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/sim"
)

func TestLayoutValidate(t *testing.T) {
	for _, tc := range []struct {
		shards int
		unit   int64
		ok     bool
	}{
		{1, 1, true},
		{8, 16384, true},
		{0, 16384, false},
		{-1, 4096, false},
		{4, 0, false},
		{4, -16, false},
	} {
		_, err := New(tc.shards, tc.unit)
		if (err == nil) != tc.ok {
			t.Errorf("New(%d, %d): err=%v, want ok=%v", tc.shards, tc.unit, err, tc.ok)
		}
	}
}

func TestShardOfRoundRobin(t *testing.T) {
	l := Layout{Shards: 4, Unit: 16}
	for i := int64(0); i < 16*12; i++ {
		want := int((i / 16) % 4)
		if got := l.ShardOf(i); got != want {
			t.Fatalf("ShardOf(%d) = %d, want %d", i, got, want)
		}
	}
	if got := Single().ShardOf(1 << 50); got != 0 {
		t.Errorf("Single().ShardOf = %d, want 0", got)
	}
}

func TestSpans(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout Layout
		off, n int64
		want   []Span
	}{
		{"empty", Layout{Shards: 2, Unit: 16}, 0, 0, nil},
		{"negative", Layout{Shards: 2, Unit: 16}, 32, -5, nil},
		{"single shard merges all", Layout{Shards: 1, Unit: 16}, 5, 1000, []Span{{0, 5, 1000}}},
		{"aligned one unit", Layout{Shards: 2, Unit: 16}, 16, 16, []Span{{1, 16, 16}}},
		{"sub-unit", Layout{Shards: 4, Unit: 16}, 36, 8, []Span{{2, 36, 8}}},
		{"two units two shards", Layout{Shards: 2, Unit: 16}, 0, 32, []Span{{0, 0, 16}, {1, 16, 16}}},
		{"wraps back to shard 0", Layout{Shards: 2, Unit: 16}, 0, 48, []Span{{0, 0, 16}, {1, 16, 16}, {0, 32, 16}}},
		{"unaligned start and end", Layout{Shards: 2, Unit: 16}, 12, 24, []Span{{0, 12, 4}, {1, 16, 16}, {0, 32, 4}}},
		{"merges adjacent same-shard units", Layout{Shards: 1, Unit: 16}, 0, 64, []Span{{0, 0, 64}}},
	} {
		got := tc.layout.Spans(tc.off, tc.n)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: span %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestSpansCoverExactly checks the spans of arbitrary ranges tile the
// range exactly (no gap, no overlap) and each span stays on one shard.
func TestSpansCoverExactly(t *testing.T) {
	l := Layout{Shards: 3, Unit: 8}
	for off := int64(0); off < 40; off += 3 {
		for n := int64(1); n < 60; n += 7 {
			spans := l.Spans(off, n)
			at := off
			var total int64
			for _, sp := range spans {
				if sp.Off != at {
					t.Fatalf("Spans(%d,%d): span at %d, expected %d", off, n, sp.Off, at)
				}
				if sp.Len <= 0 {
					t.Fatalf("Spans(%d,%d): non-positive span %v", off, n, sp)
				}
				if first, last := l.ShardOf(sp.Off), l.ShardOf(sp.Off+sp.Len-1); first != sp.Shard || last != sp.Shard {
					t.Fatalf("Spans(%d,%d): span %v crosses shards (%d..%d)", off, n, sp, first, last)
				}
				at += sp.Len
				total += sp.Len
			}
			if total != n {
				t.Fatalf("Spans(%d,%d): covered %d bytes", off, n, total)
			}
		}
	}
}

// fakeSub records per-shard traffic for routing assertions.
type fakeSub struct {
	shard   int
	size    int64
	reads   []Span
	writes  []Span
	commits []Span
	opens   int
	closes  int
}

func (f *fakeSub) Name() string { return "fake" }

func (f *fakeSub) Open(p *sim.Proc, name string) (*nas.Handle, error) {
	f.opens++
	return &nas.Handle{FH: uint64(100*f.shard) + 1, Size: f.size, Name: name}, nil
}

func (f *fakeSub) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	if h.FH != uint64(100*f.shard)+1 {
		return 0, fmt.Errorf("shard %d got foreign handle %d", f.shard, h.FH)
	}
	f.reads = append(f.reads, Span{Shard: f.shard, Off: off, Len: n})
	return n, nil
}

func (f *fakeSub) Write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	f.writes = append(f.writes, Span{Shard: f.shard, Off: off, Len: n})
	return n, nil
}

func (f *fakeSub) Getattr(p *sim.Proc, h *nas.Handle) (int64, error) { return f.size, nil }
func (f *fakeSub) Create(p *sim.Proc, name string) (*nas.Handle, error) {
	return &nas.Handle{FH: uint64(100*f.shard) + 2, Name: name}, nil
}
func (f *fakeSub) Remove(p *sim.Proc, name string) error { return nil }
func (f *fakeSub) Close(p *sim.Proc, h *nas.Handle) error {
	f.closes++
	return nil
}
func (f *fakeSub) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	f.writes = append(f.writes, Span{Shard: f.shard, Off: off, Len: int64(len(data))})
	return int64(len(data)), nil
}
func (f *fakeSub) Commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	f.commits = append(f.commits, Span{Shard: f.shard, Off: off, Len: n})
	return nil
}
func (f *fakeSub) NewTask() nas.Task { return &nowTask{c: f} }

// nowTask is the task of a fake that answers at once: each operation
// calls the fake's blocking method in place, with the job's process
// (nil when callbacks drive the task, and unused by the fakes).
type nowTask struct {
	c   nas.Client
	n   int64
	h   *nas.Handle
	err error
}

func (t *nowTask) Open(j *host.Job, name string) bool {
	t.n = 0
	t.h, t.err = t.c.Open(j.P, name)
	return true
}

func (t *nowTask) Close(j *host.Job, h *nas.Handle) bool {
	t.n, t.h, t.err = 0, nil, t.c.Close(j.P, h)
	return true
}

func (t *nowTask) Read(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	t.h = nil
	t.n, t.err = t.c.Read(j.P, h, off, n, bufID)
	return true
}

func (t *nowTask) Write(j *host.Job, h *nas.Handle, off, n int64, bufID uint64) bool {
	t.h = nil
	t.n, t.err = t.c.Write(j.P, h, off, n, bufID)
	return true
}

func (t *nowTask) Commit(j *host.Job, h *nas.Handle, off, n int64) bool {
	t.n, t.h, t.err = 0, nil, t.c.Commit(j.P, h, off, n)
	return true
}

func (t *nowTask) Step(*host.Job) bool { return true }

func (t *nowTask) Result() (int64, *nas.Handle, error) { return t.n, t.h, t.err }

// TestClientRoutesToOwningShards checks reads split across the owning
// shards with per-shard handles, and namespace ops fan out to every shard.
func TestClientRoutesToOwningShards(t *testing.T) {
	const unit = 16
	subs := make([]nas.Client, 2)
	fakes := make([]*fakeSub, 2)
	for i := range subs {
		fakes[i] = &fakeSub{shard: i, size: 1024}
		subs[i] = fakes[i]
	}
	c := NewClient(Layout{Shards: 2, Unit: unit}, subs)

	s := sim.New()
	defer s.Close()
	s.Go("app", func(p *sim.Proc) {
		h, err := c.Open(p, "f")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if h.FH != 1 {
			t.Errorf("canonical handle FH = %d, want shard 0's", h.FH)
		}
		// 48 bytes spanning units 0,1,2 -> shard 0 twice, shard 1 once.
		if n, err := c.Read(p, h, 0, 48, 7); err != nil || n != 48 {
			t.Errorf("read = %d, %v", n, err)
		}
		if n, err := c.Write(p, h, 16, 16, 7); err != nil || n != 16 {
			t.Errorf("write = %d, %v", n, err)
		}
		if err := c.Close(p, h); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	s.Run()

	if fakes[0].opens != 1 || fakes[1].opens != 1 {
		t.Errorf("opens = %d, %d — want 1 on every shard", fakes[0].opens, fakes[1].opens)
	}
	if fakes[0].closes != 1 || fakes[1].closes != 1 {
		t.Errorf("closes = %d, %d — want 1 on every shard", fakes[0].closes, fakes[1].closes)
	}
	var shard0Bytes, shard1Bytes int64
	for _, r := range fakes[0].reads {
		shard0Bytes += r.Len
	}
	for _, r := range fakes[1].reads {
		shard1Bytes += r.Len
	}
	if shard0Bytes != 32 || shard1Bytes != 16 {
		t.Errorf("read bytes per shard = %d, %d — want 32, 16", shard0Bytes, shard1Bytes)
	}
	for i, f := range fakes {
		for _, r := range append(append([]Span{}, f.reads...), f.writes...) {
			if got := (Layout{Shards: 2, Unit: unit}).ShardOf(r.Off); got != i {
				t.Errorf("shard %d served offset %d owned by shard %d", i, r.Off, got)
			}
		}
	}
	// The write to [16, 32) is unit 1 — owned by shard 1 alone.
	if len(fakes[0].writes) != 0 || len(fakes[1].writes) != 1 {
		t.Errorf("writes per shard = %v, %v — want the [16,32) write on shard 1 only",
			fakes[0].writes, fakes[1].writes)
	}
}

// TestClientWriteDataSplitsPayload checks content-bearing writes carry
// each shard exactly its spans' bytes.
func TestClientWriteDataSplitsPayload(t *testing.T) {
	subs := make([]nas.Client, 2)
	fakes := make([]*fakeSub, 2)
	for i := range subs {
		fakes[i] = &fakeSub{shard: i, size: 256}
		subs[i] = fakes[i]
	}
	c := NewClient(Layout{Shards: 2, Unit: 16}, subs)
	s := sim.New()
	defer s.Close()
	s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "f")
		data := make([]byte, 40) // offsets 4..44: spans shards 0,1,0
		if n, err := c.WriteData(p, h, 4, data); err != nil || n != 40 {
			t.Errorf("WriteData = %d, %v", n, err)
		}
	})
	s.Run()
	var total int64
	for i, f := range fakes {
		for _, w := range f.writes {
			if got := c.Layout().ShardOf(w.Off); got != i {
				t.Errorf("shard %d wrote offset %d owned by %d", i, w.Off, got)
			}
			total += w.Len
		}
	}
	if total != 40 {
		t.Errorf("total written = %d, want 40", total)
	}
}

// raceEnabled is set when the race detector instruments the build; it
// allocates on its own, so allocation budgets are not checked then.
var raceEnabled bool

// countSub is a sub-client whose reads move the bytes asked for and
// record nothing, yielding once; its reads also run as step machines.
type countSub struct{ fakeSub }

func (c *countSub) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	p.Yield()
	return n, nil
}

func (c *countSub) NewTask() nas.Task { return &countTask{Task: c.fakeSub.NewTask()} }

// countTask is countSub's task: a read yields through a same-instant
// event, as Read's process does; opens and closes run the fake's
// blocking methods.
type countTask struct {
	nas.Task
	n       int64
	reading bool
}

func (t *countTask) Open(j *host.Job, name string) bool {
	t.reading = false
	return t.Task.Open(j, name)
}

func (t *countTask) Read(j *host.Job, _ *nas.Handle, _, n int64, _ uint64) bool {
	t.n, t.reading = n, true
	j.Sched().After(0, j.Step)
	return false
}

func (t *countTask) Step(j *host.Job) bool { return t.reading || t.Task.Step(j) }

func (t *countTask) Result() (int64, *nas.Handle, error) {
	if t.reading {
		return t.n, nil, nil
	}
	return t.Task.Result()
}

// TestTwoSpanReadAllocations pins the allocations of a read split over
// two shards: a process reads once per token it takes from a queue.
// The span and fan-out records, the legs' jobs and the sub-clients'
// tasks are reused, and the legs run as callbacks, so a read allocates
// nothing.
func TestTwoSpanReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations vary from run to run")
	}
	subs := make([]nas.Client, 2)
	for i := range subs {
		subs[i] = &countSub{fakeSub{shard: i, size: 1 << 20}}
	}
	c := NewClient(Layout{Shards: 2, Unit: 4096}, subs)
	s := sim.New()
	t.Cleanup(s.Close)
	tokens := sim.NewQueue[int](s, "tokens")
	s.Go("reader", func(p *sim.Proc) {
		h, err := c.Open(p, "f")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for {
			tokens.Get(p)
			if n, err := c.Read(p, h, 2048, 4096, 1); err != nil || n != 4096 {
				t.Errorf("read = %d, %v", n, err)
			}
		}
	})
	round := func() { tokens.Put(0); s.Run() }
	for range 8 {
		round()
	}
	got := testing.AllocsPerRun(50, round)
	t.Logf("%.1f allocations per two-span read", got)
	if got > 0 {
		t.Errorf("a two-span read allocates %.1f times, budget 0", got)
	}
}

// TestConcurrentSpanRunsKeepTheirSpans runs two-span reads of different
// lengths from several processes at once on one client, their legs
// interleaving: each read runs from a recycled span record, and one
// reused while its legs still ran would report another read's length.
func TestConcurrentSpanRunsKeepTheirSpans(t *testing.T) {
	subs := make([]nas.Client, 2)
	for i := range subs {
		subs[i] = &countSub{fakeSub{shard: i, size: 1 << 20}}
	}
	c := NewClient(Layout{Shards: 2, Unit: 4096}, subs)
	s := sim.New()
	t.Cleanup(s.Close)
	var h *nas.Handle
	s.Go("open", func(p *sim.Proc) { h, _ = c.Open(p, "f") })
	s.Run()
	for k := range 4 {
		s.Go("reader", func(p *sim.Proc) {
			for round := range 3 {
				n := int64(4096 + 512*(k+1))
				if got, err := c.Read(p, h, int64(round)*8192+2048, n, 1); err != nil || got != n {
					t.Errorf("reader %d: read = %d, %v; want %d", k, got, err, n)
				}
			}
		})
	}
	s.Run()
}
