package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// signalScenario starts one waiter per entry of chain, in order, each
// waiting on signal a, then on signal b, noting each resumption: a
// process in Wait, or where chain is true a callback chain in Then. a
// fires at 1 and b at 2; at 1 a late waiter of each kind finds a
// already fired and carries on in place. It returns the log.
func signalScenario(s *Scheduler, chain []bool) *[]string {
	a, b := NewSignal(s), NewSignal(s)
	var log []string
	note := func(w int, what string) { log = append(log, fmt.Sprintf("w%d=%s@%d", w, what, s.Now())) }
	for w, cb := range chain {
		if !cb {
			s.Go("wait", func(p *Proc) {
				a.Wait(p)
				note(w, "a")
				b.Wait(p)
				note(w, "b")
			})
			continue
		}
		stage := 0
		var step func()
		step = func() {
			for {
				switch stage {
				case 0:
					stage = 1
					if !a.Then(step) {
						return
					}
				case 1:
					note(w, "a")
					stage = 2
					if !b.Then(step) {
						return
					}
				default:
					note(w, "b")
					return
				}
			}
		}
		s.After(0, step)
	}
	s.At(1, a.Fire)
	s.At(1, func() {
		s.Start("late", func(p *Proc) {
			a.Wait(p)
			log = append(log, fmt.Sprintf("late-proc@%d", s.Now()))
		})
		if a.Then(func() { log = append(log, "late callback queued") }) {
			log = append(log, fmt.Sprintf("late-callback@%d", s.Now()))
		}
	})
	s.At(2, b.Fire)
	return &log
}

// TestSignalMixedWaitersServedInArrivalOrder checks that Wait processes
// and Then callbacks waiting on one signal resume in the order they
// started waiting, each through a same-instant event of its own: a
// signal whose waiters mix the two kinds executes the same (at, seq)
// trace and log as one whose waiters are all processes.
func TestSignalMixedWaitersServedInArrivalOrder(t *testing.T) {
	run := func(chain []bool) ([]key, string) {
		s := New()
		defer s.Close()
		log := signalScenario(s, chain)
		return runTraced(s), strings.Join(*log, " ")
	}
	wantTr, wantLog := run([]bool{false, false, false, false})
	if want := "late-proc@1 late-callback@1 w0=a@1 w1=a@1 w2=a@1 w3=a@1 w0=b@2 w1=b@2 w2=b@2 w3=b@2"; wantLog != want {
		t.Fatalf("all-process log\n got %s\nwant %s", wantLog, want)
	}
	for _, chain := range [][]bool{{false, true, false, true}, {true, false, true, false}, {true, true, true, true}} {
		gotTr, gotLog := run(chain)
		if gotLog != wantLog {
			t.Fatalf("%v log\n got %s\nwant %s (all processes)", chain, gotLog, wantLog)
		}
		if !reflect.DeepEqual(gotTr, wantTr) {
			t.Fatalf("%v trace\n got %v\nwant %v (all processes)", chain, gotTr, wantTr)
		}
	}
}

// resourceScenario starts one requester per entry of chain, in order,
// on a resource of capacity 2: requester w asks for units[w] units,
// holds them for holds[w] and releases them, noting the grant and the
// release. A requester is a process in Acquire, or where chain is true
// a callback chain in AcquireOr. It returns the log.
func resourceScenario(s *Scheduler, chain []bool) *[]string {
	units := []int64{1, 2, 1, 1, 1}
	holds := []Duration{3, 1, 2, 1, 1}
	r := NewResource(s, "r", 2)
	var log []string
	note := func(w int, what string) { log = append(log, fmt.Sprintf("w%d=%s@%d", w, what, s.Now())) }
	for w, cb := range chain {
		n, d := units[w], holds[w]
		if !cb {
			s.Go("acquire", func(p *Proc) {
				r.Acquire(p, n)
				note(w, "got")
				p.Sleep(d)
				r.Release(n)
				note(w, "rel")
			})
			continue
		}
		stage := 0
		var step func()
		step = func() {
			switch stage {
			case 0:
				stage = 1
				if !r.AcquireOr(n, step) {
					return
				}
				fallthrough
			case 1:
				note(w, "got")
				stage = 2
				s.After(d, step)
			default:
				r.Release(n)
				note(w, "rel")
			}
		}
		s.After(0, step)
	}
	return &log
}

// TestResourceMixedWaitersServedInArrivalOrder checks that Acquire
// processes and AcquireOr callbacks queued on one resource are granted
// strictly in arrival order, each through a same-instant event of its
// own: a resource whose requesters mix the two kinds executes the same
// (at, seq) trace and log as one whose requesters are all processes.
func TestResourceMixedWaitersServedInArrivalOrder(t *testing.T) {
	run := func(chain []bool) ([]key, string) {
		s := New()
		defer s.Close()
		log := resourceScenario(s, chain)
		return runTraced(s), strings.Join(*log, " ")
	}
	wantTr, wantLog := run([]bool{false, false, false, false, false})
	if want := "w0=got@0 w0=rel@3 w1=got@3 w1=rel@4 w2=got@4 w3=got@4 w3=rel@5 w4=got@5 w2=rel@6 w4=rel@6"; wantLog != want {
		t.Fatalf("all-process log\n got %s\nwant %s", wantLog, want)
	}
	for _, chain := range [][]bool{{false, true, false, true, false}, {true, false, true, false, true}, {true, true, true, true, true}} {
		gotTr, gotLog := run(chain)
		if gotLog != wantLog {
			t.Fatalf("%v log\n got %s\nwant %s (all processes)", chain, gotLog, wantLog)
		}
		if !reflect.DeepEqual(gotTr, wantTr) {
			t.Fatalf("%v trace\n got %v\nwant %v (all processes)", chain, gotTr, wantTr)
		}
	}
}
