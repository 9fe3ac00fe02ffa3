package sim

import (
	"runtime"
	"testing"
)

// The kill tests pin how Run tears processes down: on return, on Stop, and
// when a panic unwinds through it. Each parked process must be resumed
// exactly once more, unwind through its exit hooks, and leave nothing
// running on the host. A coroutine's goroutine is gone as soon as the
// coroutine returns, so runtime.NumGoroutine shows a leak at once.

// runRecovering runs e and returns the value Run panicked with, or nil.
func runRecovering(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run(0)
	return nil
}

type boom struct{ n int }

func TestRecoveredPanicKillsParkedProcs(t *testing.T) {
	raisers := []struct {
		name  string
		raise func(e *Engine, v boom)
	}{
		{"process", func(e *Engine, v boom) {
			e.Spawn("faulty", func(p *Proc) {
				p.Sleep(1)
				panic(v)
			})
		}},
		{"callback", func(e *Engine, v boom) {
			e.After(1, func() { panic(v) })
		}},
	}
	for _, r := range raisers {
		raise := r.raise
		t.Run(r.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			const rounds = 50
			for i := 0; i < rounds; i++ {
				e := NewEngine(1)
				exited := false
				var c Cond
				e.Spawn("parked", func(p *Proc) {
					p.OnExit(func() { exited = true })
					c.Wait(p)
				})
				raise(e, boom{i})
				if got := runRecovering(e); got != (boom{i}) {
					t.Fatalf("round %d: Run panicked with %#v, want %#v", i, got, boom{i})
				}
				if !exited {
					t.Fatalf("round %d: parked process's exit hook did not run", i)
				}
				if e.LiveProcs() != 0 || e.BlockedProcs() != 0 {
					t.Fatalf("round %d: leaked procs: live=%d blocked=%d", i, e.LiveProcs(), e.BlockedProcs())
				}
				// The engine is not left marked as running.
				ran := false
				e.Spawn("after", func(p *Proc) { ran = true })
				if r := runRecovering(e); r != nil || !ran {
					t.Fatalf("round %d: Run after a recovered panic: panic %v, ran %v", i, r, ran)
				}
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%d goroutines after %d recovered panics, baseline %d", n, rounds, base)
			}
		})
	}
}

// TestKillOrderIsProcID parks processes in the reverse of their spawn
// order; the kill still runs them in ascending proc id.
func TestKillOrderIsProcID(t *testing.T) {
	const n = 6
	e := NewEngine(1)
	var c Cond
	var parked, killed []int
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.OnExit(func() { killed = append(killed, i) })
			p.Sleep(Time(n - i))
			parked = append(parked, i)
			c.Wait(p)
		})
	}
	e.Run(0)
	for i := range killed {
		if parked[i] != n-1-i || killed[i] != i {
			t.Fatalf("parked %v, killed %v: want parks descending and kills ascending", parked, killed)
		}
	}
	if len(killed) != n {
		t.Fatalf("%d processes killed, want %d", len(killed), n)
	}
}

// TestKillDrainsReparkedProc: a process that recovers its kill and parks
// again re-enters the blocked set mid-scan; the scan repeats and kills it
// again, so Run still returns with nothing parked. An exit hook that wakes
// another parked process does not save it either: the wake-up's resume
// event is stale once the process is dead.
func TestKillDrainsReparkedProc(t *testing.T) {
	e := NewEngine(1)
	var c, d Cond
	parks, exits := 0, 0
	e.Spawn("stubborn", func(p *Proc) {
		p.OnExit(func() { exits++ })
		defer func() {
			recover()
			parks++
			c.Wait(p)
			t.Error("stubborn resumed after its second park")
		}()
		parks++
		c.Wait(p)
	})
	e.Spawn("waker", func(p *Proc) {
		p.OnExit(func() { d.Signal() })
		c.Wait(p)
	})
	woken := false
	e.Spawn("sleeper", func(p *Proc) {
		d.Wait(p)
		woken = true
	})
	e.Run(0)
	if parks != 2 || exits != 1 {
		t.Fatalf("stubborn parked %d times and exited %d times, want 2 and 1", parks, exits)
	}
	if e.LiveProcs() != 0 || e.BlockedProcs() != 0 {
		t.Fatalf("leaked procs: live=%d blocked=%d", e.LiveProcs(), e.BlockedProcs())
	}
	if e.Idle() {
		t.Fatal("the exit hook's wake-up scheduled no resume event")
	}
	e.Run(0) // pops the stale resume event
	if woken {
		t.Fatal("a killed process was resumed by a later Run")
	}
}

// TestUnstartedProcHoldsNothing: a process whose start event never runs —
// spawned beside Stop, or after Run returned at its horizon — has no
// coroutine to kill and never runs its body. One spawned at the horizon
// starts in a later Run like any other pending event.
func TestUnstartedProcHoldsNothing(t *testing.T) {
	base := runtime.NumGoroutine()

	e := NewEngine(1)
	ranStopped := false
	e.After(5, func() {
		e.Spawn("beside-stop", func(p *Proc) { ranStopped = true })
		e.Stop()
	})
	e.Run(0)

	h := NewEngine(1)
	h.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
	h.Run(50)
	ranLate := false
	h.Spawn("late", func(p *Proc) { ranLate = true })

	if ranStopped || ranLate {
		t.Fatalf("unstarted bodies ran: beside-stop %v, late %v", ranStopped, ranLate)
	}
	if e.LiveProcs() != 1 || h.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d and %d, want the one pending process each", e.LiveProcs(), h.LiveProcs())
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines with only unstarted processes, baseline %d", n, base)
	}
	if e.Run(0) != 0 || ranStopped {
		t.Fatal("a stopped engine ran further events")
	}
	h.Run(0)
	if !ranLate || h.LiveProcs() != 0 {
		t.Fatalf("late process: ran %v, live %d after the next Run", ranLate, h.LiveProcs())
	}
}

// TestStopFromProcess: Stop called by a process ends Run once that process
// parks. Its next Sleep never returns, its exit hook runs, same-time events
// queued behind it stay unrun, and the engine stays stopped.
func TestStopFromProcess(t *testing.T) {
	e := NewEngine(1)
	exited, resumed := false, false
	ticks := 0
	e.Spawn("stopper", func(p *Proc) {
		p.OnExit(func() { exited = true })
		p.Sleep(10)
		e.Stop()
		p.Sleep(1)
		resumed = true
	})
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(1)
			ticks++
		}
	})
	e.Run(0)
	if e.Now() != 10 || ticks != 9 {
		t.Fatalf("stopped at %v after %d ticks, want 10ns and 9", e.Now(), ticks)
	}
	if resumed || !exited {
		t.Fatalf("stopper resumed %v, exit hook ran %v; want false, true", resumed, exited)
	}
	if e.LiveProcs() != 0 || e.BlockedProcs() != 0 {
		t.Fatalf("leaked procs: live=%d blocked=%d", e.LiveProcs(), e.BlockedProcs())
	}
	if n := e.Run(0); n != 0 || ticks != 9 {
		t.Fatalf("Run after Stop executed %d events (ticks %d), want 0", n, ticks)
	}
}
