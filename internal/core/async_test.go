package core

import (
	"testing"

	"danas/internal/nas"
	"danas/internal/sim"
)

// TestNativeAsyncPipelinesIndependentOps checks the point of the async
// facade over the cached client: independent operations submitted
// through it overlap their block fetches, so a window of N ops finishes in
// far less than N sequential op times.
func TestNativeAsyncPipelinesIndependentOps(t *testing.T) {
	const ops = 8
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 256*4096)
	r.sc.Warm(f)

	// Baseline: the same ops issued one at a time on a sync client.
	seq := r.newClient(t, odafsCfg())
	var seqElapsed sim.Duration
	r.s.Go("seq", func(p *sim.Proc) {
		h, err := seq.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		start := p.Now()
		for i := 0; i < ops; i++ {
			if _, err := seq.Read(p, h, int64(i)*4096, 4096, 1); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		}
		seqElapsed = p.Now().Sub(start)
	})
	r.s.Run()

	// The same ops submitted back-to-back through the async facade on
	// a fresh client.
	c := r.newClient(t, odafsCfg())
	ac := c.Async(ops)
	var asyncElapsed sim.Duration
	r.s.Go("async", func(p *sim.Proc) {
		h, err := ac.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		start := p.Now()
		for i := 0; i < ops; i++ {
			ac.Submit(p, nas.Op{Kind: nas.OpRead, H: h, Off: int64(i) * 4096, N: 4096, BufID: 1})
		}
		for drained := 0; drained < ops; {
			comps := ac.Wait(p)
			for _, comp := range comps {
				if comp.Err != nil || comp.N != 4096 {
					t.Errorf("tag %d: (%d, %v), want (4096, nil)", comp.Tag, comp.N, comp.Err)
				}
			}
			drained += len(comps)
		}
		asyncElapsed = p.Now().Sub(start)
	})
	r.s.Run()

	if seqElapsed <= 0 || asyncElapsed <= 0 {
		t.Fatalf("elapsed times not measured: seq %v async %v", seqElapsed, asyncElapsed)
	}
	if asyncElapsed*2 >= seqElapsed {
		t.Errorf("depth-%d async took %v vs sequential %v; outstanding ops did not overlap",
			ops, asyncElapsed, seqElapsed)
	}
}

// TestNativeAsyncCoalescesSameBlock checks that outstanding ops for the
// same block coalesce on the cache's inflight table: four concurrent
// fetches of one block cost one RPC population, not four.
func TestNativeAsyncCoalescesSameBlock(t *testing.T) {
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 64*4096)
	r.sc.Warm(f)
	c := r.newClient(t, odafsCfg())
	ac := c.Async(4)
	r.s.Go("app", func(p *sim.Proc) {
		h, err := ac.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < 4; i++ {
			ac.Submit(p, nas.Op{Kind: nas.OpRead, H: h, Off: 8 * 4096, N: 4096, BufID: 1})
		}
		for drained := 0; drained < 4; {
			drained += len(ac.Wait(p))
		}
	})
	r.s.Run()
	st := c.Stats()
	if st.RPCReads != 1 {
		t.Errorf("4 outstanding reads of one block cost %d RPC populations, want 1 (coalesced)", st.RPCReads)
	}
}

// TestNativeAsyncWritePath checks writes flow through the async facade:
// the completion reports the bytes written and the file grows.
func TestNativeAsyncWritePath(t *testing.T) {
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 16*4096)
	r.sc.Warm(f)
	c := r.newClient(t, odafsCfg())
	ac := c.Async(2)
	r.s.Go("app", func(p *sim.Proc) {
		h, err := ac.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		ac.Submit(p, nas.Op{Kind: nas.OpWrite, H: h, Off: 4096, N: 4096, BufID: 1})
		comps := ac.Wait(p)
		if len(comps) != 1 || comps[0].Err != nil || comps[0].N != 4096 {
			t.Errorf("write completions = %+v, want one clean 4096-byte completion", comps)
		}
	})
	r.s.Run()
}

// TestNativeAsyncCompletionsMatchTheirOps submits a window of reads of
// different lengths and checks each completion reports the tag and the
// operation it was submitted with, exactly once: every op runs from a
// recycled record, and a record reused while its op still ran would
// report another op's tag.
func TestNativeAsyncCompletionsMatchTheirOps(t *testing.T) {
	const ops = 12
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 256*4096)
	r.sc.Warm(f)
	ac := r.newClient(t, odafsCfg()).Async(4)
	r.s.Go("async", func(p *sim.Proc) {
		h, err := ac.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		want := make(map[uint64]int64)
		for i := range ops {
			n := int64(1+i%3) * 4096
			want[ac.Submit(p, nas.Op{Kind: nas.OpRead, H: h, Off: int64(i) * 4 * 4096, N: n, BufID: 1})] = n
		}
		for len(want) > 0 {
			for _, comp := range ac.Wait(p) {
				n, ok := want[comp.Tag]
				if !ok || comp.Op.N != n || comp.N != n || comp.Err != nil {
					t.Errorf("completion tag %d: op %+v moved %d (%v); submitted %d bytes under it (%v)",
						comp.Tag, comp.Op, comp.N, comp.Err, n, ok)
				}
				delete(want, comp.Tag)
			}
		}
	})
	r.s.Run()
}
