package nas

import (
	"errors"
	"testing"

	"danas/internal/sim"
)

// TestAsyncAdapterCompletesAll submits a burst of reads through the
// async facade and checks every op completes exactly once with a
// unique tag, correct byte counts, and sane timestamps.
func TestAsyncAdapterCompletesAll(t *testing.T) {
	m := newMemClient()
	drive(t, func(p *sim.Proc) {
		h, err := m.Create(p, "f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := m.WriteData(p, h, 0, make([]byte, 64*1024)); err != nil {
			t.Fatalf("write: %v", err)
		}
		ac := NewAsync(m, 4)
		if ac.Depth() != 4 {
			t.Fatalf("Depth() = %d, want 4", ac.Depth())
		}
		const ops = 16
		tags := make(map[uint64]bool)
		for i := 0; i < ops; i++ {
			tag := ac.Submit(p, Op{Kind: OpRead, H: h, Off: int64(i) * 1024, N: 1024, BufID: 1})
			if tags[tag] {
				t.Fatalf("tag %d assigned twice", tag)
			}
			tags[tag] = true
		}
		var comps []Completion
		for len(comps) < ops {
			comps = append(comps, ac.Wait(p)...)
		}
		if len(comps) != ops {
			t.Fatalf("collected %d completions, want %d", len(comps), ops)
		}
		for _, c := range comps {
			if !tags[c.Tag] {
				t.Errorf("completion carries unknown tag %d", c.Tag)
			}
			if c.Err != nil || c.N != 1024 {
				t.Errorf("tag %d: (%d, %v), want (1024, nil)", c.Tag, c.N, c.Err)
			}
			if c.Done < c.Submitted {
				t.Errorf("tag %d: Done %v before Submitted %v", c.Tag, c.Done, c.Submitted)
			}
			if c.Done == c.Submitted {
				t.Errorf("tag %d: op consumed no simulated time", c.Tag)
			}
		}
		if ac.Outstanding() != 0 {
			t.Errorf("Outstanding() = %d after full drain, want 0", ac.Outstanding())
		}
	})
}

// TestAsyncDepthBoundsSubmission checks Submit blocks once Depth ops are
// outstanding: with depth 2 and ops that each take fixed simulated time,
// the third submission cannot be admitted before the first completion.
func TestAsyncDepthBoundsSubmission(t *testing.T) {
	m := newMemClient()
	drive(t, func(p *sim.Proc) {
		h, err := m.Create(p, "f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := m.WriteData(p, h, 0, make([]byte, 4096)); err != nil {
			t.Fatalf("write: %v", err)
		}
		ac := NewAsync(m, 2)
		start := p.Now()
		for i := 0; i < 6; i++ {
			ac.Submit(p, Op{Kind: OpRead, H: h, Off: 0, N: 512, BufID: 1})
			if o := ac.Outstanding(); o > 2 {
				t.Fatalf("submission %d: %d outstanding, depth is 2", i, o)
			}
		}
		// Each op takes perOp (10us). Admissions beyond the first two
		// must have waited for completions, so the last Submit returns
		// at least two op-times after the first batch started.
		if waited := p.Now().Sub(start); waited < 2*m.perOp {
			t.Errorf("6 submissions at depth 2 admitted after %v; a full queue should block submitters", waited)
		}
		for drained := 0; drained < 6; {
			drained += len(ac.Wait(p))
		}
	})
}

// TestAsyncErrorAndWriteCompletions checks op kinds dispatch to the
// right sync call and per-op errors surface on the completion, not as a
// panic or a lost op.
func TestAsyncErrorAndWriteCompletions(t *testing.T) {
	m := newMemClient()
	drive(t, func(p *sim.Proc) {
		h, err := m.Create(p, "f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		ac := NewAsync(m, 2)
		wtag := ac.Submit(p, Op{Kind: OpWrite, H: h, Off: 0, N: 2048, BufID: 1})
		m.failRead = ErrIO
		rtag := ac.Submit(p, Op{Kind: OpRead, H: h, Off: 0, N: 512, BufID: 2})
		var comps []Completion
		for len(comps) < 2 {
			comps = append(comps, ac.Wait(p)...)
		}
		m.failRead = nil
		byTag := map[uint64]Completion{}
		for _, c := range comps {
			byTag[c.Tag] = c
		}
		if c := byTag[wtag]; c.Err != nil || c.N != 2048 || c.Op.Kind != OpWrite {
			t.Errorf("write completion = %+v, want 2048 bytes, nil error", c)
		}
		if c := byTag[rtag]; !errors.Is(c.Err, ErrIO) {
			t.Errorf("read completion error = %v, want ErrIO", c.Err)
		}
		if size, err := m.Getattr(p, h); err != nil || size != 2048 {
			t.Errorf("file size after async write = (%d, %v), want (2048, nil)", size, err)
		}
	})
}

// TestAsyncWaitDrainsBatch checks Wait returns everything buffered at
// once and a later Wait blocks until a new completion arrives.
func TestAsyncWaitDrainsBatch(t *testing.T) {
	m := newMemClient()
	drive(t, func(p *sim.Proc) {
		h, err := m.Create(p, "f")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := m.WriteData(p, h, 0, make([]byte, 4096)); err != nil {
			t.Fatalf("write: %v", err)
		}
		ac := NewAsync(m, 4)
		for i := 0; i < 4; i++ {
			ac.Submit(p, Op{Kind: OpRead, H: h, Off: 0, N: 256, BufID: 1})
		}
		// All four ops take identical time, so they complete at the same
		// instant and one Wait drains the whole batch.
		p.Sleep(sim.Millis(1))
		if got := ac.Wait(p); len(got) != 4 {
			t.Fatalf("Wait returned %d completions, want the full batch of 4", len(got))
		}
		before := p.Now()
		ac.Submit(p, Op{Kind: OpRead, H: h, Off: 0, N: 256, BufID: 1})
		if got := ac.Wait(p); len(got) != 1 {
			t.Fatalf("Wait after drain returned %d completions, want 1", len(got))
		}
		if p.Now() == before {
			t.Error("second Wait returned without blocking for the new completion")
		}
	})
}

// TestAsyncDepthValidated checks the constructor rejects nonsense depth.
func TestAsyncDepthValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAsync(depth=0) did not panic")
		}
	}()
	NewAsync(newMemClient(), 0)
}

// TestReadDataPartialWithSourceError is the regression for the ReadData
// fix: a ContentSource that materializes some bytes before failing must
// surface that partial count alongside the error, not a hard 0.
func TestReadDataPartialWithSourceError(t *testing.T) {
	m := newMemClient()
	src := &memSource{m: m, shortAfter: 5, err: ErrIO}
	drive(t, func(p *sim.Proc) {
		h, _ := m.Create(p, "f")
		if _, err := m.WriteData(p, h, 0, []byte("0123456789")); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadData(p, m, src, h, 0, make([]byte, 10), 1)
		if !errors.Is(err, ErrIO) {
			t.Fatalf("ReadData error = %v, want ErrIO", err)
		}
		if got != 5 {
			t.Errorf("ReadData partial count = %d, want 5 alongside the error", got)
		}
	})
}

// TestAsyncCycleAllocations pins the allocations of one Submit and Wait
// through the async facade, which runs each operation as the client's
// task: a process submits one read per token it takes from a queue and
// waits for its completion. The completion buffers, the wakeup signal
// and the operation records (their tasks, jobs and bound callbacks) are
// reused, so once they have grown a cycle allocates nothing.
func TestAsyncCycleAllocations(t *testing.T) {
	t.Run("stepper", func(t *testing.T) {
		m := newMemClient()
		s := sim.New()
		t.Cleanup(s.Close)
		tokens := sim.NewQueue[int](s, "tokens")
		s.Go("app", func(p *sim.Proc) {
			h, err := m.Create(p, "f")
			if err == nil {
				_, err = m.WriteData(p, h, 0, make([]byte, 4096))
			}
			if err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			ac := NewAsync(m, 2)
			for {
				tokens.Get(p)
				tag := ac.Submit(p, Op{Kind: OpRead, H: h, N: 4096, BufID: 1})
				if got := ac.Wait(p); len(got) != 1 || got[0].Tag != tag || got[0].N != 4096 {
					t.Errorf("completions %+v, want tag %d's", got, tag)
				}
			}
		})
		round := func() { tokens.Put(0); s.Run() }
		for range 8 {
			round()
		}
		if got := testing.AllocsPerRun(50, round); got != 0 {
			t.Errorf("a Submit/Wait cycle allocates %.1f times, want 0", got)
		}
	})
}
