package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueuePutGet(t *testing.T) {
	s := New()
	defer s.Close()
	q := NewQueue[int](s, "q")
	var got []int
	s.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	s.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10 * Microsecond)
			q.Put(i)
		}
	})
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("consumed %v, want [1 2 3]", got)
	}
}

func TestQueueFIFOAcrossBurst(t *testing.T) {
	s := New()
	defer s.Close()
	q := NewQueue[int](s, "q")
	var got []int
	for w := 0; w < 3; w++ {
		s.Go("c", func(p *Proc) { got = append(got, q.Get(p)) })
	}
	s.Go("p", func(p *Proc) {
		p.Sleep(Microsecond)
		q.Put(10)
		q.Put(20)
		q.Put(30)
	})
	s.Run()
	if len(got) != 3 {
		t.Fatalf("got %v, want three values", got)
	}
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if !seen[10] || !seen[20] || !seen[30] {
		t.Fatalf("burst lost values: %v", got)
	}
}

func TestSignalReleasesAllWaiters(t *testing.T) {
	s := New()
	defer s.Close()
	sig := NewSignal(s)
	resumed := 0
	for i := 0; i < 4; i++ {
		s.Go("w", func(p *Proc) {
			sig.Wait(p)
			resumed++
		})
	}
	s.Go("firer", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		sig.Fire()
	})
	s.Run()
	if resumed != 4 {
		t.Fatalf("resumed = %d, want 4", resumed)
	}
}

func TestSignalWaitAfterFire(t *testing.T) {
	s := New()
	defer s.Close()
	sig := NewSignal(s)
	sig.Fire()
	sig.Fire() // idempotent
	ok := false
	s.Go("late", func(p *Proc) {
		sig.Wait(p) // must not block
		ok = true
	})
	s.Run()
	if !ok {
		t.Fatal("late waiter blocked on fired signal")
	}
}

func TestFuture(t *testing.T) {
	s := New()
	defer s.Close()
	f := NewFuture[string](s)
	var got string
	s.Go("reader", func(p *Proc) { got = f.Value(p) })
	s.Go("writer", func(p *Proc) {
		p.Sleep(Microsecond)
		f.Resolve("done")
		f.Resolve("ignored")
	})
	s.Run()
	if got != "done" {
		t.Fatalf("future value = %q, want done", got)
	}
}

// Property: queue preserves order for a single consumer regardless of
// producer timing.
func TestQueueOrderProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		if len(gaps) == 0 || len(gaps) > 50 {
			return true
		}
		s := New()
		defer s.Close()
		q := NewQueue[int](s, "q")
		var got []int
		s.Go("c", func(p *Proc) {
			for range gaps {
				got = append(got, q.Get(p))
			}
		})
		s.Go("p", func(p *Proc) {
			for i, g := range gaps {
				p.Sleep(Duration(g) * Microsecond)
				q.Put(i)
			}
		})
		s.Run()
		if len(got) != len(gaps) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRand(8)
	if a.Uint64() == c.Uint64() {
		t.Fatal("different seeds produced identical next values (suspicious)")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestRingWrapsAndGrows(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		// Alternate bursts of pushes with partial drains, so the head
		// wraps around the buffer between growths.
		for i := 0; i < round%7+1; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < round%5 && r.Len() > 0; i++ {
			if got := r.Front(); got != want {
				t.Fatalf("Front = %d, want %d", got, want)
			}
			if got := r.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
		if r.Len() != next-want {
			t.Fatalf("Len = %d, want %d", r.Len(), next-want)
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}
}

// queueScenario starts one receiver per entry of chain, in order, each
// taking one value from q and yielding, forever: a process in a Get
// loop, or where chain is true a callback chain in a GetOr loop. A burst
// of four Puts at 1 serves one value to each. At 2, a burst of three
// Puts wakes the first three, and a GetOr that finds a value takes one
// and passes the baton to the fourth receiver, which finds the queue
// empty again. Two more Puts follow at 3. It returns the log.
func queueScenario(s *Scheduler, chain []bool) *[]string {
	q := NewQueue[int](s, "q")
	var log []string
	got := func(w, v int) { log = append(log, fmt.Sprintf("w%d=%d@%d", w, v, s.Now())) }
	for w, cb := range chain {
		if !cb {
			s.Go("get", func(p *Proc) {
				for {
					got(w, q.Get(p))
					p.Yield()
				}
			})
			continue
		}
		var step func()
		step = func() {
			if v, ok := q.GetOr(step); ok {
				got(w, v)
				s.After(0, step)
			}
		}
		s.After(0, step)
	}
	s.At(1, func() {
		for v := 1; v <= 4; v++ {
			q.Put(v)
		}
	})
	s.At(2, func() {
		for v := 5; v <= 7; v++ {
			q.Put(v)
		}
		if v, ok := q.GetOr(func() { log = append(log, "stealer woken") }); ok {
			log = append(log, fmt.Sprintf("stolen=%d@%d", v, s.Now()))
		}
	})
	s.At(3, func() {
		q.Put(8)
		q.Put(9)
	})
	return &log
}

// TestQueueMixedWaitersServedInArrivalOrder checks that Get processes
// and GetOr callbacks waiting on one queue are served in the order they
// started waiting, and that take's baton pass reaches a callback: a
// queue whose second and fourth receivers are callbacks executes the
// same (at, seq) trace and log as one whose receivers are all processes.
func TestQueueMixedWaitersServedInArrivalOrder(t *testing.T) {
	run := func(chain []bool) ([]key, string) {
		s := New()
		defer s.Close()
		log := queueScenario(s, chain)
		return runTraced(s), strings.Join(*log, " ")
	}
	wantTr, wantLog := run([]bool{false, false, false, false})
	if want := "w0=1@1 w1=2@1 w2=3@1 w3=4@1 stolen=5@2 w0=6@2 w1=7@2 w2=8@3 w3=9@3"; wantLog != want {
		t.Fatalf("all-process log\n got %s\nwant %s", wantLog, want)
	}
	gotTr, gotLog := run([]bool{false, true, false, true})
	if gotLog != wantLog {
		t.Fatalf("mixed log\n got %s\nwant %s (all processes)", gotLog, wantLog)
	}
	if !reflect.DeepEqual(gotTr, wantTr) {
		t.Fatalf("mixed trace\n got %v\nwant %v (all processes)", gotTr, wantTr)
	}
}
