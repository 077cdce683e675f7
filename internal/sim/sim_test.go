package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	defer s.Close()
	if s.Now() != 0 {
		t.Fatalf("new scheduler clock = %d, want 0", s.Now())
	}
}

func TestAfterOrdering(t *testing.T) {
	s := New()
	defer s.Close()
	var order []int
	s.After(30*Microsecond, func() { order = append(order, 3) })
	s.After(10*Microsecond, func() { order = append(order, 1) })
	s.After(20*Microsecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v, want [1 2 3]", order)
	}
	if s.Now() != Time(30*Microsecond) {
		t.Fatalf("final clock = %v, want 30us", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	defer s.Close()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*Microsecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestPostInPastPanics(t *testing.T) {
	s := New()
	defer s.Close()
	s.After(10*Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("posting in the past did not panic")
			}
		}()
		s.At(5*Time(Microsecond), func() {})
	})
	s.Run()
}

func TestProcSleep(t *testing.T) {
	s := New()
	defer s.Close()
	var woke Time
	s.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		woke = p.Now()
	})
	s.Run()
	if woke != Time(42*Microsecond) {
		t.Fatalf("proc woke at %v, want 42us", woke)
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New()
	defer s.Close()
	var trace []string
	s.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10 * Microsecond)
		trace = append(trace, "a1")
		p.Sleep(20 * Microsecond)
		trace = append(trace, "a2")
	})
	s.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15 * Microsecond)
		trace = append(trace, "b1")
	})
	s.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

// TestRunUntil checks that RunUntil runs only events due at or before
// its bound and then moves the clock up to it. A bound before the clock,
// negative included, runs nothing and leaves the clock where it is.
func TestRunUntil(t *testing.T) {
	s := New()
	defer s.Close()
	fired := 0
	s.After(10*Microsecond, func() { fired++ })
	s.After(30*Microsecond, func() { fired++ })
	for _, step := range []struct {
		until Time
		fired int
		now   Time
	}{
		{-1, 0, 0},
		{Time(20 * Microsecond), 1, Time(20 * Microsecond)},
		{Time(5 * Microsecond), 1, Time(20 * Microsecond)},
	} {
		s.RunUntil(step.until)
		if fired != step.fired || s.Now() != step.now {
			t.Fatalf("RunUntil(%v): fired %d, clock %v; want %d, %v", step.until, fired, s.Now(), step.fired, step.now)
		}
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestCloseReapsBlockedProcs(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "never")
	started := false
	s.Go("stuck", func(p *Proc) {
		started = true
		q.Get(p) // never satisfied
		t.Error("blocked proc resumed unexpectedly")
	})
	s.Run()
	if !started {
		t.Fatal("proc never started")
	}
	s.Close()
	s.Close() // idempotent
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New()
		defer s.Close()
		var ts []Time
		r := NewResource(s, "cpu", 1)
		for i := 0; i < 5; i++ {
			s.Go("w", func(p *Proc) {
				r.Use(p, 7*Microsecond)
				ts = append(ts, p.Now())
			})
		}
		s.Run()
		return ts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged: %v vs %v", a, b)
		}
	}
}

func TestTransferTime(t *testing.T) {
	if d := TransferTime(250e6, 250e6); d != Second {
		t.Fatalf("250MB at 250MB/s = %v, want 1s", d)
	}
	if d := TransferTime(0, 250e6); d != 0 {
		t.Fatalf("0 bytes took %v, want 0", d)
	}
	if d := TransferTime(4096, 0); d != 0 {
		t.Fatalf("infinite rate took %v, want 0", d)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{23 * Microsecond, "23.000us"},
		{9 * Millisecond, "9.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a%1<<20), int64(b%1<<20)
		if x > y {
			x, y = y, x
		}
		return TransferTime(x, 250e6) <= TransferTime(y, 250e6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
