package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// key is an event's place in the total order the loop executes events in.
type key struct {
	at  Time
	seq uint64
}

// runTraced runs s to quiescence with Run and returns the key of every
// event executed, whether the loop fired it or a Proc ran it ahead.
func runTraced(s *Scheduler) []key {
	var tr []key
	s.trace = func(at Time, seq uint64) { tr = append(tr, key{at, seq}) }
	defer func() { s.trace = nil }()
	s.Run()
	return tr
}

// TestCloseUnwindsEveryCoroutine checks that Close leaves no goroutine
// behind. This and the other goroutine checks allow for goroutines
// outside the test exiting meanwhile.
func TestCloseUnwindsEveryCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	q := NewQueue[int](s, "never")
	unwound := 0
	for i := 0; i < 3; i++ {
		s.Go("parked", func(p *Proc) {
			defer func() { unwound++ }()
			q.Get(p)
			t.Error("parked proc resumed")
		})
	}
	// Two short-lived Procs: the second reuses the first's coroutine, so
	// one coroutine is left pooled.
	for i := 0; i < 2; i++ {
		s.Go("finished", func(p *Proc) {})
	}
	s.Run()
	s.Go("never-started", func(p *Proc) { t.Error("proc started after Close") })
	if got, want := runtime.NumGoroutine(), base+4; got < want {
		t.Fatalf("goroutines before Close = %d, want %d (3 parked + 1 pooled)", got, want)
	}
	s.Close()
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines right after Close = %d, want baseline %d", got, base)
	}
	if unwound != 3 {
		t.Fatalf("%d parked procs unwound by Close, want 3", unwound)
	}
}

func TestCloseFromInsideSimulation(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	q := NewQueue[int](s, "never")
	s.Go("parked", func(p *Proc) { q.Get(p) })
	unwound := false
	s.Go("closer", func(p *Proc) {
		defer func() { unwound = true }()
		s.Close()
		p.Sleep(1)
		t.Error("closer resumed after Close")
	})
	s.After(1, func() { t.Error("event ran after Close") })
	s.Run()
	if !unwound {
		t.Fatal("the Proc that called Close was not unwound when Run returned")
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("goroutines after Run = %d, want baseline %d", got, base)
	}
}

func TestStaleWakeOfReusedCoroutine(t *testing.T) {
	s := New()
	defer s.Close()
	var first *coro
	a := s.Go("a", func(p *Proc) { first = p.co })
	s.Run()
	resumed := false
	b := s.Go("b", func(p *Proc) {
		p.block() // nothing wakes b
		resumed = true
	})
	s.Run()
	if b.co != first {
		t.Fatal("b did not reuse a's pooled coroutine")
	}
	s.After(1, func() { s.wake(a) })
	s.postWake(s.now+2, a)
	s.Run()
	if resumed {
		t.Fatal("a stale wake of finished proc a resumed b on the reused coroutine")
	}
}

func TestProcPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	s.Go("idle", func(p *Proc) { p.Sleep(Second) })
	s.Go("boom", func(p *Proc) {
		p.Sleep(5)
		panic("kaboom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run()
		return nil
	}()
	if want := "sim: proc boom#2 panicked: kaboom"; got != want {
		t.Fatalf("Run panicked with %v, want %q", got, want)
	}
	s.Close()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines after Close = %d, want baseline %d", n, base)
	}
}

func TestAfterCancelSuppressesEvent(t *testing.T) {
	s := New()
	defer s.Close()
	ran := false
	s.After(10, func() {})
	cancel := s.AfterCancel(50, func() { ran = true })
	cancel()
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %d, want 10: a cancelled event must not advance it", s.Now())
	}
	if s.Events() != 1 {
		t.Fatalf("Events() = %d, want 1: a cancelled event must not count", s.Events())
	}
}

func TestAfterCancelAfterFireIsNoop(t *testing.T) {
	s := New()
	defer s.Close()
	runs := 0
	cancel := s.AfterCancel(5, func() { runs++ })
	s.Run()
	cancel()
	cancel()
	s.After(5, func() {})
	s.Run()
	if runs != 1 || s.Events() != 2 || s.Now() != 10 {
		t.Fatalf("runs=%d events=%d now=%d, want 1, 2, 10", runs, s.Events(), s.Now())
	}
}

func TestAfterCancelSameInstantFIFO(t *testing.T) {
	s := New()
	defer s.Close()
	var order []int
	var cancels []func()
	for i := 0; i < 8; i++ {
		i := i
		fn := func() { order = append(order, i) }
		if i%2 == 0 {
			s.After(5, fn)
		} else {
			cancels = append(cancels, s.AfterCancel(5, fn))
		}
	}
	cancels[1]() // event 3
	s.Run()
	if want := []int{0, 1, 2, 4, 5, 6, 7}; !reflect.DeepEqual(order, want) {
		t.Fatalf("same-instant order %v, want %v", order, want)
	}
}

// wakeOrderScenario sets up Station.Wait and Signal waits that complete
// at the same instants as plain callbacks posted before and after them,
// and returns the log the run appends to.
func wakeOrderScenario(s *Scheduler) *[]string {
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, s.Now())) }
	st := NewStation(s, "st")
	sig := NewSignal(s)
	s.At(10, func() { note("x") })
	s.Go("a", func(p *Proc) {
		st.Wait(p, 10)
		note("a-served")
		sig.Fire()
		st.Wait(p, 0)
		note("a-done")
	})
	s.Go("b", func(p *Proc) {
		sig.Wait(p)
		note("b-fired")
	})
	s.Go("c", func(p *Proc) {
		st.Wait(p, 5)
		note("c-served")
		sig.Wait(p)
		note("c-done")
	})
	s.At(10, func() {
		note("y")
		s.After(0, func() { note("z") })
	})
	s.At(15, func() { note("w") })
	return &log
}

// TestStationAndSignalWakeOrder pins the (at, seq) sequence of Station.Wait
// and Signal wakes. A Station.Wait completion re-posts a same-instant wake
// (here seq 7 posts 10, 8 posts 13 and 12 posts 14), so a waiter resumes
// after callbacks already due at that instant, as it did when the wait
// went through a Signal.
func TestStationAndSignalWakeOrder(t *testing.T) {
	s := New()
	defer s.Close()
	log := wakeOrderScenario(s)
	got := runTraced(s)
	want := []key{
		{0, 2}, {0, 3}, {0, 4},
		{10, 1}, {10, 5}, {10, 7}, {10, 9}, {10, 10}, {10, 11},
		{15, 6}, {15, 8}, {15, 12}, {15, 13}, {15, 14},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event trace\n got %v\nwant %v", got, want)
	}
	wantLog := "x@10 y@10 z@10 a-served@10 b-fired@10 w@15 c-served@15 c-done@15 a-done@15"
	if g := strings.Join(*log, " "); g != wantLog {
		t.Fatalf("log\n got %s\nwant %s", g, wantLog)
	}
}

// randomProgram posts a seeded mix of kernel calls whose instants and
// service times sit on a coarse grid, so that station completions,
// timers, wakes and Proc starts keep colliding at the same instant while
// the stations stay backlogged. It returns the log of what ran, when.
func randomProgram(s *Scheduler, seed uint64) *[]string {
	r := NewRand(seed)
	var log []string
	note := func(what string, id int) { log = append(log, fmt.Sprintf("%s%d@%d", what, id, s.Now())) }
	grid := func(n int) Duration { return Duration(5 * r.Intn(n)) }
	sts := []*Station{NewStation(s, "st0"), NewStation(s, "st1"), NewStation(s, "st2")}
	q := NewQueue[int](s, "q")
	sigs := []*Signal{NewSignal(s), NewSignal(s), NewSignal(s), NewSignal(s)}
	var cancels []func()
	budget, ids := 1500, 0
	var act func()
	act = func() {
		if budget == 0 {
			return
		}
		budget--
		ids++
		id := ids
		st := sts[r.Intn(len(sts))]
		done := func() {
			note("done", id)
			if r.Intn(3) > 0 {
				act()
			}
		}
		switch r.Intn(10) {
		case 0:
			st.Serve(grid(4), done)
		case 1:
			st.Serve(grid(3), nil)
			st.Serve(grid(3), done)
		case 2:
			st.ServeAt(s.Now().Add(grid(6)), grid(3), done)
		case 3:
			s.After(grid(8), done)
		case 4:
			s.At(s.Now().Add(grid(8)), done)
		case 5:
			cancels = append(cancels, s.AfterCancel(grid(8), done))
			if r.Intn(2) == 0 {
				cancels[r.Intn(len(cancels))]()
			}
		case 6, 7:
			sig := sigs[r.Intn(len(sigs))]
			s.Go("p", func(p *Proc) {
				note("start", id)
				st.Wait(p, grid(4))
				note("served", id)
				switch r.Intn(4) {
				case 0:
					note("got", q.Get(p))
				case 1:
					sig.Wait(p)
					note("fired", id)
				case 2:
					p.Sleep(grid(3))
				case 3:
					st.Wait(p, grid(2))
				}
				act()
				act()
			})
		case 8:
			q.Put(id)
			act()
		case 9:
			i := r.Intn(len(sigs))
			sigs[i].Fire()
			sigs[i] = NewSignal(s)
			act()
		}
	}
	for i := 0; i < 40; i++ {
		s.At(Time(grid(10)), act)
	}
	return &log
}

// TestRandomProgramOrderPinned pins the (at, seq) trace of a random
// program on backlogged stations: the order every event fires in, and
// the sequence number it fired under, must not change when the kernel's
// internals do.
func TestRandomProgramOrderPinned(t *testing.T) {
	h := fnv.New64a()
	events, lines := 0, 0
	for seed := uint64(1); seed <= 3; seed++ {
		s := New()
		log := randomProgram(s, seed)
		tr := runTraced(s)
		s.Close()
		for _, k := range tr {
			fmt.Fprintf(h, "%d/%d ", k.at, k.seq)
		}
		for _, l := range *log {
			fmt.Fprintf(h, "%s ", l)
		}
		events += len(tr)
		lines += len(*log)
	}
	got := fmt.Sprintf("events=%d log=%d digest=%016x", events, lines, h.Sum64())
	if want := "events=5476 log=4312 digest=9e4abc5691aa7ab3"; got != want {
		t.Fatalf("trace %s, want %s", got, want)
	}
}

// TestBackloggedStationHoldsOneHeapEntry queues many callback jobs and
// waits on one station: only the earliest completion sits in the heap,
// and each one that fires hands the heap the next.
func TestBackloggedStationHoldsOneHeapEntry(t *testing.T) {
	s := New()
	defer s.Close()
	st := NewStation(s, "st")
	const n = 64
	var order []int
	for i := 0; i < n; i++ {
		i := i
		st.Serve(Duration(i%3), func() {
			order = append(order, i)
			if len(s.events) > 1 {
				t.Errorf("job %d: heap holds %d events, want at most 1", i, len(s.events))
			}
		})
	}
	if len(s.events) != 1 {
		t.Fatalf("heap holds %d events with %d jobs queued, want 1", len(s.events), n)
	}
	s.Run()
	if len(order) != n {
		t.Fatalf("%d of %d jobs completed", len(order), n)
	}
	for i, j := range order {
		if i != j {
			t.Fatalf("completion order %v, want submission order", order)
		}
	}
}

// onLoopStack reports whether its caller runs below the event loop's own
// frame, as an event the loop fires does, rather than on a Proc's
// coroutine, as an event run ahead does.
func onLoopStack() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Scheduler).runUntil") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestLoneProcRunsAhead checks the run-ahead rule on a lone Proc: with
// nothing else queued, a Wait executes its completion and wake in place
// on the Proc's coroutine, so Events advances by 2, the clock by the
// wait, and the heap stays empty. A Sleep still blocks: its one wake is
// fired by the loop.
func TestLoneProcRunsAhead(t *testing.T) {
	s := New()
	defer s.Close()
	st := NewStation(s, "st")
	var onLoop []bool
	s.trace = func(Time, uint64) { onLoop = append(onLoop, onLoopStack()) }
	s.Go("lone", func(p *Proc) {
		check := func(what string, ev0, n uint64, now Time) {
			if got := s.Events() - ev0; got != n || s.Now() != now || len(s.events) != 0 {
				t.Errorf("%s: %d events, clock %d, heap %d; want %d events, clock %d, heap 0",
					what, got, s.Now(), len(s.events), n, now)
			}
		}
		ev := s.Events()
		st.Wait(p, 10)
		check("Wait", ev, 2, 10)
		ev = s.Events()
		p.Sleep(5)
		check("Sleep", ev, 1, 15)
	})
	s.Run()
	// The loop fires the Proc's start and the Sleep's wake; the Wait's
	// two events run ahead.
	if want := []bool{true, false, false, true}; !reflect.DeepEqual(onLoop, want) {
		t.Fatalf("events fired by the loop %v, want %v", onLoop, want)
	}
}

// TestEventDueAtFinishFiresFirst checks that a Proc whose Wait ends at
// the instant another event is due blocks: the event, posted first, runs
// before the Proc resumes.
func TestEventDueAtFinishFiresFirst(t *testing.T) {
	s := New()
	defer s.Close()
	st := NewStation(s, "st")
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, s.Now())) }
	s.Go("w", func(p *Proc) {
		s.At(10, func() { note("x") })
		st.Wait(p, 10)
		note("waited")
	})
	s.Run()
	if got, want := strings.Join(log, " "), "x@10 waited@10"; got != want {
		t.Fatalf("log %q, want %q", got, want)
	}
}

// TestRunUntilBoundsRunAhead checks that a Proc does not run ahead past
// the loop's limit: RunUntil returns with the Proc still blocked and the
// clock at the limit, and a later run resumes it at its finish time.
func TestRunUntilBoundsRunAhead(t *testing.T) {
	s := New()
	defer s.Close()
	st := NewStation(s, "st")
	var resumed []Time
	s.Go("w", func(p *Proc) {
		for range 2 {
			st.Wait(p, 10)
			resumed = append(resumed, p.Now())
		}
	})
	for _, step := range []struct {
		limit   Time
		resumed []Time
	}{{5, nil}, {10, []Time{10}}, {19, []Time{10}}} {
		s.RunUntil(step.limit)
		if !reflect.DeepEqual(resumed, step.resumed) || s.Now() != step.limit {
			t.Fatalf("after RunUntil(%d): resumed at %v, clock %d; want %v, clock %d",
				step.limit, resumed, s.Now(), step.resumed, step.limit)
		}
	}
	s.Run()
	if want := []Time{10, 20}; !reflect.DeepEqual(resumed, want) || s.Now() != 20 || s.Events() != 5 {
		t.Fatalf("after Run: resumed at %v, clock %d, %d events; want %v, clock 20, 5 events",
			resumed, s.Now(), s.Events(), want)
	}
}

// TestCloseInsideProcStopsRunAhead checks that a Proc that closes its
// scheduler blocks on its next Wait, with nothing else queued, and is
// unwound there rather than running on.
func TestCloseInsideProcStopsRunAhead(t *testing.T) {
	s := New()
	st := NewStation(s, "st")
	s.Go("closer", func(p *Proc) {
		s.Close()
		st.Wait(p, 1)
		t.Error("proc ran on after Close")
	})
	s.Run()
	if s.Now() != 0 || s.Events() != 1 {
		t.Fatalf("clock %d, %d events after Close; want 0, 1", s.Now(), s.Events())
	}
}

// waitLoop is a process that runs one job of each duration in ds on st
// with Wait, noting the instant it resumes after each.
func waitLoop(s *Scheduler, st *Station, ds []Duration, note func(string)) {
	s.Go("w", func(p *Proc) {
		for _, d := range ds {
			st.Wait(p, d)
			note("resumed")
		}
	})
}

// thenChain runs waitLoop's loop from callbacks with Then, started where
// waitLoop's process starts. It counts the jobs that ran ahead.
func thenChain(s *Scheduler, st *Station, ds []Duration, note func(string)) *int {
	ahead, i, pending := 0, 0, false
	var step func()
	step = func() {
		for {
			if pending {
				pending = false
				note("resumed")
			}
			if i == len(ds) {
				return
			}
			pending, i = true, i+1
			if !st.Then(ds[i-1], step) {
				return
			}
			ahead++
		}
	}
	s.After(0, step)
	return &ahead
}

// TestThenTracesLikeWait runs twin schedulers, one with a process in a
// Wait loop and one with a Then callback chain, and checks both execute
// the same (at, seq) trace and log: with nothing else due (the jobs run
// ahead), with an event due exactly at a job's finish, and with a
// RunUntil bound before a job's finish.
func TestThenTracesLikeWait(t *testing.T) {
	ds := []Duration{10, 5, 0, 7}
	for _, tc := range []struct {
		name   string
		before func(s *Scheduler, note func(string)) // posts before the loop starts
		limits []Time                                // RunUntil bounds, then Run
		events int                                   // events besides the loop's
		ahead  int                                   // jobs the chain runs ahead
	}{
		{"nothing else due", nil, nil, 0, 4},
		{"event due at finish", func(s *Scheduler, note func(string)) {
			s.At(10, func() { note("x") })
			s.At(15, func() { note("y") })
		}, nil, 2, 2},
		{"RunUntil before finish", nil, []Time{4, 12, 15}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(chain bool) ([]key, string, int) {
				s := New()
				defer s.Close()
				st := NewStation(s, "st")
				var log []string
				note := func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, s.Now())) }
				if tc.before != nil {
					tc.before(s, note)
				}
				ahead := new(int)
				if chain {
					ahead = thenChain(s, st, ds, note)
				} else {
					waitLoop(s, st, ds, note)
				}
				var tr []key
				s.trace = func(at Time, seq uint64) { tr = append(tr, key{at, seq}) }
				for _, l := range tc.limits {
					s.RunUntil(l)
					note("limit")
				}
				s.Run()
				return tr, strings.Join(log, " "), *ahead
			}
			wantTr, wantLog, _ := run(false)
			gotTr, gotLog, ahead := run(true)
			if !reflect.DeepEqual(gotTr, wantTr) {
				t.Fatalf("Then trace\n got %v\nwant %v (Wait)", gotTr, wantTr)
			}
			if gotLog != wantLog {
				t.Fatalf("Then log\n got %s\nwant %s (Wait)", gotLog, wantLog)
			}
			if want := tc.events + 1 + 2*len(ds); len(gotTr) != want {
				t.Fatalf("%d events, want %d: the start and two per job", len(gotTr), want)
			}
			if ahead != tc.ahead {
				t.Fatalf("%d jobs ran ahead, want %d", ahead, tc.ahead)
			}
		})
	}
}

// TestStartTracesLikeRunningProc runs twin schedulers. In one, a
// process that is already running executes a body in place, inside a
// station completion's callback; in the other, that callback starts the
// body with Start. Both callbacks then do more work in the same event
// (a note, a queue Put), and other events fire around the body. The
// twins must execute the same (at, seq) trace and log whether the body
// first blocks on a station, a queue or a signal. A start posted as an
// event, or deferred to the end of the current event, would let the
// callback's own work run ahead of the body.
func TestStartTracesLikeRunningProc(t *testing.T) {
	type blockOn func(s *Scheduler, p *Proc, st *Station, q *Queue[int], sig *Signal, note func(string))
	station := func(_ *Scheduler, p *Proc, st *Station, _ *Queue[int], _ *Signal, note func(string)) {
		st.Wait(p, 7)
		note("station")
	}
	queue := func(_ *Scheduler, p *Proc, _ *Station, q *Queue[int], _ *Signal, note func(string)) {
		note(fmt.Sprintf("queue %d", q.Get(p)))
	}
	signal := func(_ *Scheduler, p *Proc, _ *Station, _ *Queue[int], sig *Signal, note func(string)) {
		sig.Wait(p)
		note("signal")
	}
	for _, tc := range []struct {
		name  string
		steps []blockOn
	}{
		{"station first", []blockOn{station, queue, signal}},
		{"queue first", []blockOn{queue, signal, station}},
		{"signal first", []blockOn{signal, station, queue}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(start bool) ([]key, string) {
				s := New()
				defer s.Close()
				st := NewStation(s, "st")
				q := NewQueue[int](s, "q")
				sig := NewSignal(s)
				var log []string
				note := func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, s.Now())) }
				body := func(p *Proc) {
					note("body")
					for _, step := range tc.steps {
						step(s, p, st, q, sig, note)
					}
					note("end")
				}
				// The already-running process parks until the callback
				// hands it control in place; its twin posts the one start
				// event that process's spawn took.
				var running *Proc
				if start {
					s.After(0, func() {})
				} else {
					running = s.Go("running", func(p *Proc) {
						p.block()
						body(p)
					})
				}
				st.Serve(3, func() {
					if start {
						s.Start("started", body)
					} else {
						s.wake(running)
					}
					note("callback")
					q.Put(1)
				})
				s.At(3, func() { note("tie") })
				s.At(8, func() { sig.Fire() })
				s.At(9, func() { q.Put(2) })
				var tr []key
				s.trace = func(at Time, seq uint64) { tr = append(tr, key{at, seq}) }
				s.Run()
				return tr, strings.Join(log, " ")
			}
			wantTr, wantLog := run(false)
			gotTr, gotLog := run(true)
			if !reflect.DeepEqual(gotTr, wantTr) {
				t.Fatalf("Start trace\n got %v\nwant %v (running process)", gotTr, wantTr)
			}
			if gotLog != wantLog {
				t.Fatalf("Start log\n got %s\nwant %s (running process)", gotLog, wantLog)
			}
			if !strings.HasPrefix(gotLog, "body@3 ") {
				t.Fatalf("log %s: the body did not run first, in the callback's event", gotLog)
			}
		})
	}
}

// TestResetSignalTracesLikeFresh runs twin schedulers through rounds of
// a completion that three processes wait on, two before it fires and
// one after, and that a fourth fires: one scheduler makes a fresh
// signal per round, the other keeps one signal and resets it. Both must
// execute the same (at, seq) trace and log.
func TestResetSignalTracesLikeFresh(t *testing.T) {
	const rounds = 4
	run := func(reuse bool) ([]key, string) {
		s := New()
		defer s.Close()
		var log []string
		note := func(what string) { log = append(log, fmt.Sprintf("%s@%d", what, s.Now())) }
		var g *Signal
		for r := range rounds {
			base := Duration(100 * r)
			s.At(Time(base), func() {
				switch {
				case g == nil || !reuse:
					g = NewSignal(s)
				default:
					g.Reset()
				}
				sig := g
				for i := range 2 {
					s.Go("w", func(p *Proc) {
						p.Sleep(Duration(i))
						sig.Wait(p)
						note(fmt.Sprintf("r%d-w%d", r, i))
					})
				}
				s.Go("f", func(p *Proc) {
					p.Sleep(10)
					sig.Fire()
					sig.Fire() // a second fire is a no-op
					note(fmt.Sprintf("r%d-fired", r))
					sig.Wait(p) // fired: returns at once
					note(fmt.Sprintf("r%d-late", r))
				})
			})
		}
		return runTraced(s), strings.Join(log, " ")
	}
	wantTr, wantLog := run(false)
	gotTr, gotLog := run(true)
	if !reflect.DeepEqual(gotTr, wantTr) {
		t.Fatalf("reset signal trace\n got %v\nwant %v (fresh)", gotTr, wantTr)
	}
	if gotLog != wantLog {
		t.Fatalf("reset signal log\n got %s\nwant %s (fresh)", gotLog, wantLog)
	}
	if n := strings.Count(gotLog, "@"); n != rounds*4 {
		t.Fatalf("log %q has %d notes, want 4 a round", gotLog, n)
	}
}

// TestResetUnfiredSignalPanics checks that re-arming a signal whose
// waiters have not been woken is refused.
func TestResetUnfiredSignalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of an unfired signal did not panic")
		}
	}()
	NewSignal(New()).Reset()
}
