package workload

import (
	"testing"

	"danas/internal/host"
	"danas/internal/metrics"
	"danas/internal/nas"
	"danas/internal/sim"
	"danas/internal/trace"
)

// slowClient is a deliberately slow nas.Client: every data operation
// takes exactly opTime, far longer than the trace's interarrival gaps,
// so an open-loop replay must pile up outstanding operations.
type slowClient struct {
	opTime sim.Duration
	size   int64
}

var _ nas.Client = (*slowClient)(nil)

func (c *slowClient) Name() string { return "slow" }
func (c *slowClient) Open(p *sim.Proc, name string) (*nas.Handle, error) {
	return &nas.Handle{FH: 1, Size: c.size, Name: name}, nil
}
func (c *slowClient) Read(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	p.Sleep(c.opTime)
	return n, nil
}
func (c *slowClient) Write(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	p.Sleep(c.opTime)
	return n, nil
}
func (c *slowClient) Getattr(p *sim.Proc, h *nas.Handle) (int64, error) { return h.Size, nil }
func (c *slowClient) Create(p *sim.Proc, name string) (*nas.Handle, error) {
	return c.Open(p, name)
}
func (c *slowClient) Remove(p *sim.Proc, name string) error  { return nil }
func (c *slowClient) Close(p *sim.Proc, h *nas.Handle) error { return nil }
func (c *slowClient) WriteData(p *sim.Proc, h *nas.Handle, off int64, data []byte) (int64, error) {
	return c.Write(p, h, off, int64(len(data)), 0)
}
func (c *slowClient) Commit(p *sim.Proc, h *nas.Handle, off, n int64) error {
	p.Sleep(c.opTime)
	return nil
}

// NewTask implements nas.Client: a read, write or commit waits opTime
// on a timer event, where the blocking method's Sleep wakes (or
// sleeps, on a job carried by a process); opens and closes are
// immediate.
func (c *slowClient) NewTask() nas.Task { return &slowTask{c: c} }

type slowTask struct {
	c *slowClient
	n int64
	h *nas.Handle
}

func (t *slowTask) Open(j *host.Job, name string) bool {
	t.n, t.h = 0, &nas.Handle{FH: 1, Size: t.c.size, Name: name}
	return true
}

func (t *slowTask) Close(*host.Job, *nas.Handle) bool {
	t.n, t.h = 0, nil
	return true
}

func (t *slowTask) Read(j *host.Job, _ *nas.Handle, _, n int64, _ uint64) bool { return t.wait(j, n) }

func (t *slowTask) Write(j *host.Job, _ *nas.Handle, _, n int64, _ uint64) bool { return t.wait(j, n) }

func (t *slowTask) Commit(j *host.Job, _ *nas.Handle, _, _ int64) bool { return t.wait(j, 0) }

func (t *slowTask) wait(j *host.Job, n int64) bool {
	t.n, t.h = n, nil
	if j.P != nil {
		j.P.Sleep(t.c.opTime)
		return true
	}
	j.Sched().After(t.c.opTime, j.Step)
	return false
}

func (t *slowTask) Step(*host.Job) bool { return true }

func (t *slowTask) Result() (int64, *nas.Handle, error) { return t.n, t.h, nil }

// uniformTrace builds n records arriving every gap, alternating a write
// in every fourth slot.
func uniformTrace(n int, gap sim.Duration) trace.Trace {
	tr := make(trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		kind := nas.OpRead
		if i%4 == 3 {
			kind = nas.OpWrite
		}
		tr = append(tr, trace.Record{
			At: sim.Duration(i) * gap, Kind: kind,
			File: "f", Off: int64(i) * 4096, Size: 4096,
		})
	}
	return tr
}

// TestReplayOpenLoopIssueTimes is the open-loop acceptance property:
// with a queue deep enough, every operation is issued at exactly its
// recorded arrival time even though the deliberately slow protocol has
// many operations queued (depth well past 1), so a slow protocol cannot
// distort subsequent issue times.
func TestReplayOpenLoopIssueTimes(t *testing.T) {
	const ops = 32
	gap := 20 * sim.Microsecond
	tr := uniformTrace(ops, gap)
	sc := &slowClient{opTime: sim.Millis(1), size: int64(ops) * 4096}
	s := sim.New()
	t.Cleanup(s.Close)
	ac := nas.NewAsync(sc, ops) // deep enough that submission never blocks
	var res *ReplayResult
	var err error
	s.Go("replay", func(p *sim.Proc) {
		res, err = Replay(p, ac, tr)
	})
	s.Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Stalls != 0 {
		t.Errorf("open-loop replay recorded %d stalls, want 0", res.Stalls)
	}
	for i, rec := range tr {
		if want := res.Start.Add(rec.At); res.Issues[i] != want {
			t.Fatalf("record %d issued at %v, want its arrival time %v (drifted %v)",
				i, res.Issues[i], want, res.Issues[i].Sub(want))
		}
	}
	// The slow protocol really had a deep queue: 1ms ops arriving every
	// 20us stack nearly the whole trace up.
	if res.MaxOutstanding <= 1 {
		t.Errorf("MaxOutstanding = %d; the slow protocol should have queued many ops", res.MaxOutstanding)
	}
	if res.Ops != ops || res.Errors != 0 {
		t.Errorf("completed %d ops with %d errors, want %d/0", res.Ops, res.Errors, ops)
	}
	if res.Lat.Count() != ops {
		t.Errorf("latency histogram holds %d samples, want %d", res.Lat.Count(), ops)
	}
	// Every latency includes at least the service time.
	if res.Lat.Min() < sc.opTime {
		t.Errorf("min latency %v below the op service time %v", res.Lat.Min(), sc.opTime)
	}
	if res.Elapsed < tr.Duration()+sc.opTime {
		t.Errorf("Elapsed %v shorter than last arrival + service %v", res.Elapsed, tr.Duration()+sc.opTime)
	}
}

// TestReplayBoundedDepthBackPressure checks the other side of the
// contract: with a shallow queue the replayer degrades to bounded
// back-pressure — submissions stall past their arrival times and the
// stalls are counted — instead of exceeding the depth.
func TestReplayBoundedDepthBackPressure(t *testing.T) {
	const ops = 16
	tr := uniformTrace(ops, 20*sim.Microsecond)
	sc := &slowClient{opTime: sim.Millis(1), size: int64(ops) * 4096}
	s := sim.New()
	t.Cleanup(s.Close)
	ac := nas.NewAsync(sc, 2)
	var res *ReplayResult
	var err error
	s.Go("replay", func(p *sim.Proc) {
		res, err = Replay(p, ac, tr)
	})
	s.Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.MaxOutstanding > 2 {
		t.Errorf("MaxOutstanding = %d, bounded depth is 2", res.MaxOutstanding)
	}
	if res.Stalls == 0 {
		t.Error("shallow queue against a slow protocol should record stalls")
	}
	late := false
	for i, rec := range tr {
		if res.Issues[i] > res.Start.Add(rec.At) {
			late = true
		}
	}
	if !late {
		t.Error("no issue time lagged its arrival despite a full queue")
	}
	if res.Ops != ops {
		t.Errorf("completed %d ops, want %d", res.Ops, ops)
	}
}

// TestReplayOverDAFS replays a generated trace end-to-end over the real
// simulated stack (the async facade over a raw DAFS session client)
// and checks bytes, cleanliness, and that per-op latencies are sane.
func TestReplayOverDAFS(t *testing.T) {
	s, fs, sc, c, _ := rig(t)
	gen := trace.GenConfig{
		Ops: 200, Files: 4, FileSize: 1 << 20, IOSize: 16 * 1024,
		ReadFrac: 1.0, FileZipf: 0.8, OffZipf: 0.8, Rate: 4000, Seed: 11,
	}
	tr := trace.Generate(gen)
	for _, ext := range tr.Extents() {
		f, err := fs.Create(ext.File, ext.Size)
		if err != nil {
			t.Fatalf("create %s: %v", ext.File, err)
		}
		sc.Warm(f)
	}
	ac := nas.NewAsync(c, 32)
	var res *ReplayResult
	var err error
	s.Go("replay", func(p *sim.Proc) {
		res, err = Replay(p, ac, tr)
	})
	s.Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Ops != int64(gen.Ops) || res.Errors != 0 {
		t.Fatalf("completed %d ops with %d errors, want %d/0", res.Ops, res.Errors, gen.Ops)
	}
	if res.Bytes != tr.Bytes() {
		t.Errorf("moved %d bytes, trace carries %d", res.Bytes, tr.Bytes())
	}
	if res.Lat.Quantile(0.5) <= 0 || res.Lat.Quantile(0.99) < res.Lat.Quantile(0.5) {
		t.Errorf("percentiles implausible: p50 %v p99 %v", res.Lat.Quantile(0.5), res.Lat.Quantile(0.99))
	}
	if res.MBps() <= 0 {
		t.Error("throughput not positive")
	}
}

// TestReplayEmptyTrace checks the degenerate case returns cleanly.
func TestReplayEmptyTrace(t *testing.T) {
	s := sim.New()
	t.Cleanup(s.Close)
	ac := nas.NewAsync(&slowClient{opTime: sim.Micros(1), size: 4096}, 1)
	s.Go("replay", func(p *sim.Proc) {
		res, err := Replay(p, ac, nil)
		if err != nil || res.Ops != 0 {
			t.Errorf("empty replay = (%+v, %v), want clean zero result", res, err)
		}
	})
	s.Run()
}

// TestPoolMergesStaggeredClients pins the fleet merge: a lone result
// comes back untouched, and staggered results pool to the earliest
// start, a span reaching the last completion, merged latency quantiles
// and summed counts.
func TestPoolMergesStaggeredClients(t *testing.T) {
	one := &ReplayResult{Ops: 1, Bytes: 4096}
	if got := Pool([]*ReplayResult{one}); got != one {
		t.Fatal("Pool of one result did not return it as is")
	}

	late := &ReplayResult{Ops: 2, Bytes: 100, Errors: 1, Stalls: 1, MaxOutstanding: 3,
		Start: sim.Time(2 * sim.Millisecond), Elapsed: 6 * sim.Millisecond}
	early := &ReplayResult{Ops: 2, Bytes: 50, Stalls: 2, MaxOutstanding: 5,
		Start: sim.Time(sim.Millisecond), Elapsed: 4 * sim.Millisecond}
	var want metrics.Hist
	for _, d := range []sim.Duration{100 * sim.Microsecond, 200 * sim.Microsecond} {
		late.Lat.Observe(d)
		want.Observe(d)
	}
	for _, d := range []sim.Duration{sim.Millisecond, 3 * sim.Millisecond} {
		early.Lat.Observe(d)
		want.Observe(d)
	}
	p := Pool([]*ReplayResult{late, early})
	if p.Start != early.Start {
		t.Errorf("Start = %v, want the earliest start %v", p.Start, early.Start)
	}
	if want := 7 * sim.Millisecond; p.Elapsed != want { // 8 ms last end - 1 ms first start
		t.Errorf("Elapsed = %v, want %v", p.Elapsed, want)
	}
	if p.Ops != 4 || p.Bytes != 150 || p.Errors != 1 || p.Stalls != 3 || p.MaxOutstanding != 5 {
		t.Errorf("pooled counts ops=%d bytes=%d errors=%d stalls=%d depth=%d, want 4/150/1/3/5",
			p.Ops, p.Bytes, p.Errors, p.Stalls, p.MaxOutstanding)
	}
	if p.Lat.Count() != 4 {
		t.Errorf("pooled histogram holds %d samples, want 4", p.Lat.Count())
	}
	for _, q := range []float64{0.25, 0.5, 0.99} {
		if got, w := p.Lat.Quantile(q), want.Quantile(q); got != w {
			t.Errorf("p%g = %v, want %v", q*100, got, w)
		}
	}
	if p.MBps() != float64(150)/1e6/p.Elapsed.Seconds() {
		t.Errorf("MBps = %g does not span the pooled window", p.MBps())
	}
}
