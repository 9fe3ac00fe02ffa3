// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel with a virtual nanosecond clock.
//
// The kernel executes exactly one logical thread of control at a time: either
// the engine's event loop or a single simulated process. Control is passed
// between goroutines with a single "token", so simulated code never races
// with other simulated code even though each process is a real goroutine.
// This makes the whole simulation deterministic: given the same seed and the
// same program, every virtual timestamp is identical on every run.
//
// Processes are spawned with Engine.Spawn and block using the primitives in
// this package (Proc.Sleep, Cond.Wait, Resource.Acquire, Queue.Get, ...).
// Callback events scheduled with Engine.At run in engine context and must not
// block.
//
// The event queue and the scheduling paths are engineered for wall-clock
// throughput (see DESIGN.md "Kernel performance"): a specialized 4-ary
// min-heap over *event with no interface boxing, a free list that recycles
// fired and cancelled events (generation counters keep stale Timer handles
// harmless), a typed resume-process event kind so Proc.Sleep allocates no
// closure, and an engine-owned payload buffer pool (BufPool). Event order
// is a strict total order on (time, sequence), so none of this can change
// a single virtual timestamp.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// Time is virtual simulation time in nanoseconds.
type Time int64

// Common durations, for readability at call sites.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Micros reports t as a float number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Event kinds. The generic callback kind calls fn; the resume kind unparks
// proc directly, so the Sleep/unpark path needs no per-sleep closure.
const (
	evCall byte = iota
	evResume
)

// event is a scheduled occurrence. Events are owned by the engine and
// recycled through a free list; gen counts reuses of the slot so a Timer
// handle from a previous life can never cancel the current occupant.
type event struct {
	t    Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	gen  uint32 // slot reuse count (see Timer)
	kind byte
	dead bool   // cancelled; skipped (and recycled) when popped
	fn   func() // evCall
	proc *Proc  // evResume
}

// eventLess is the queue's strict total order. seq is unique, so two
// distinct events never compare equal and any correct heap pops them in
// exactly one order — the bedrock of bit-identical replay.
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Engine is the discrete-event simulation engine. It owns the virtual clock
// and the event queue. An Engine must be created with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	events  []*event      // 4-ary min-heap ordered by eventLess
	free    []*event      // recycled event slots
	ctl     chan struct{} // token returned to the engine by a yielding proc
	rng     *rand.Rand
	procs   map[*Proc]struct{} // live (spawned, not finished) processes
	blocked map[*Proc]struct{} // processes parked on a primitive
	running bool
	procSeq int
	stopped bool // Stop was called; Run drains no further events
	// procPanic carries a panic out of a process goroutine so Run can
	// re-raise it on the caller's goroutine (where tests can recover it).
	procPanic any
	// pool is large (free lists + per-class counters for every size class)
	// and cold relative to the dispatch loop; keeping it last keeps the
	// scalar fields above packed into the leading cache lines.
	pool BufPool
}

// NewEngine returns an engine whose clock starts at 0 and whose internal
// random source is seeded with seed (determinism: same seed, same schedule).
func NewEngine(seed int64) *Engine {
	return &Engine{
		ctl: make(chan struct{}),
		//simlint:allow globalrand the engine owns the per-run root source; all other sim code draws from Engine.Rand()
		rng:     rand.New(rand.NewSource(seed)),
		procs:   make(map[*Proc]struct{}),
		blocked: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (engine callbacks or processes).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pool returns the engine's payload buffer pool. Like everything else on
// the engine it must only be used from simulation context.
func (e *Engine) Pool() *BufPool { return &e.pool }

// push inserts ev into the 4-ary heap (sift up).
func (e *Engine) push(ev *event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the minimum event (sift down). The 4-ary layout
// halves the tree height of a binary heap; the extra child comparisons are
// cheap relative to the memory traffic they save.
func (e *Engine) pop() *event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(h[j], h[m]) {
					m = j
				}
			}
			if !eventLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// alloc takes an event slot from the free list, or makes a new one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// release recycles a fired or cancelled event slot. The generation bump
// invalidates every outstanding Timer handle to the slot.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	ev.dead = false
	e.free = append(e.free, ev)
}

// schedule enqueues an event at absolute time t (clamped to now).
func (e *Engine) schedule(t Time, kind byte, fn func(), p *Proc) *event {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.t = t
	ev.seq = e.seq
	ev.kind = kind
	ev.fn = fn
	ev.proc = p
	e.seq++
	e.push(ev)
	return ev
}

// Timer is a handle to a scheduled callback, allowing cancellation. Timers
// are plain values; the zero Timer is valid and Stop on it reports false.
// The handle pins nothing: once the callback fires, the event slot is
// recycled, and the generation check makes Stop on the stale handle a
// guaranteed no-op even if the slot now holds an unrelated event.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer. It reports whether the callback had not yet fired
// (and therefore will never fire).
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// At schedules fn to run at absolute virtual time t (clamped to now).
// fn runs in engine context and must not block.
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.schedule(t, evCall, fn, nil)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop makes Run return after the current event completes. Pending events are
// discarded and parked processes are killed.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty, the horizon is exceeded, or
// Stop is called. horizon <= 0 means no horizon. It returns the number of
// events executed. After the loop it force-kills any still-parked processes
// so their goroutines exit (their pending work is abandoned).
func (e *Engine) Run(horizon Time) int {
	if e.running {
		panic("sim: Engine.Run re-entered")
	}
	e.running = true
	n := 0
	for len(e.events) > 0 && !e.stopped {
		ev := e.pop()
		if ev.dead {
			e.release(ev)
			continue
		}
		if horizon > 0 && ev.t > horizon {
			// The event is beyond this run's horizon, not consumed: push it
			// back so a later Run with a larger horizon still sees it.
			e.push(ev)
			e.now = horizon
			break
		}
		e.now = ev.t
		// Recycle the slot before dispatch: the callback commonly schedules
		// follow-up events, which then reuse it immediately. The gen bump in
		// release is what makes Stop-after-fire report false.
		kind, fn, p := ev.kind, ev.fn, ev.proc
		e.release(ev)
		if kind == evCall {
			fn()
		} else if !p.done {
			delete(e.blocked, p)
			//simlint:allow baregoroutine resume/ctl is the scheduler's own serial token handoff
			p.resume <- struct{}{}
			<-e.ctl
		}
		n++
		if e.procPanic != nil {
			r := e.procPanic
			e.procPanic = nil
			e.running = false
			panic(r)
		}
	}
	e.running = false
	e.killAll()
	return n
}

// killAll resumes every parked process with the killed flag set so its
// goroutine unwinds (see Proc.yield), then waits for it to exit. Kill order
// is ascending proc id; exit hooks may park further processes, so the scan
// repeats until the blocked set drains.
func (e *Engine) killAll() {
	var order []*Proc
	for len(e.blocked) > 0 {
		order = order[:0]
		for q := range e.blocked {
			order = append(order, q)
		}
		sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })
		for _, p := range order {
			if _, ok := e.blocked[p]; !ok {
				continue
			}
			delete(e.blocked, p)
			p.killed = true
			//simlint:allow baregoroutine resume/ctl is the scheduler's own serial token handoff
			p.resume <- struct{}{}
			<-e.ctl
		}
	}
}

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool { return len(e.events) == 0 }

// LiveProcs returns the number of spawned processes that have not finished.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// BlockedProcs returns the number of processes parked on a primitive.
func (e *Engine) BlockedProcs() int { return len(e.blocked) }

// procKilled is the panic value used to unwind a killed process.
type procKilled struct{}

// Proc is a simulated process. Exactly one Proc (or the engine) runs at a
// time. All methods must be called from the process's own goroutine.
type Proc struct {
	eng    *Engine
	name   string
	id     int
	resume chan struct{}
	killed bool
	done   bool
	onExit []func()
}

// Spawn creates a process named name running fn, starting at the current
// virtual time (after already-scheduled same-time events).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, id: e.procSeq, resume: make(chan struct{})}
	e.procSeq++
	e.procs[p] = struct{}{}
	e.At(e.now, func() {
		//simlint:allow baregoroutine Spawn owns the one legal goroutine; the ctl/resume token handoff serializes it with the engine
		go p.run(fn)
		//simlint:allow baregoroutine resume/ctl is the scheduler's own serial token handoff
		p.resume <- struct{}{} // hand the token to the new process
		<-e.ctl                // wait until it yields or finishes
	})
	return p
}

func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				// A real panic from simulated code: carry it to the
				// engine goroutine, where Run re-raises it.
				p.eng.procPanic = r
			}
		}
		p.done = true
		delete(p.eng.procs, p)
		for i := len(p.onExit) - 1; i >= 0; i-- {
			p.onExit[i]()
		}
		//simlint:allow baregoroutine resume/ctl is the scheduler's own serial token handoff
		p.eng.ctl <- struct{}{} // hand the token back to the engine
	}()
	<-p.resume // wait for the spawn event to hand us the token
	if p.killed {
		panic(procKilled{})
	}
	fn(p)
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// OnExit registers fn to run (in the process goroutine) when the process
// finishes or is killed. LIFO order.
func (p *Proc) OnExit(fn func()) { p.onExit = append(p.onExit, fn) }

// yield parks the process: the token goes back to the engine, and the
// process sleeps until something sends on p.resume. If the process was
// killed while parked, it unwinds.
func (p *Proc) yield() {
	p.eng.blocked[p] = struct{}{}
	//simlint:allow baregoroutine resume/ctl is the scheduler's own serial token handoff
	p.eng.ctl <- struct{}{}
	<-p.resume
	if p.killed {
		panic(procKilled{})
	}
}

// unpark schedules p to resume at time t. Must be called from sim context.
// This is a typed event, not a closure, so parking is allocation-free once
// the engine's free list is warm.
func (p *Proc) unpark(t Time) {
	p.eng.schedule(t, evResume, nil, p)
}

// Sleep advances the process's virtual time by d (>= 0).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.unpark(p.eng.now + d)
	p.yield()
}

// Yield lets all other ready work at the current time run before continuing.
func (p *Proc) Yield() { p.Sleep(0) }
