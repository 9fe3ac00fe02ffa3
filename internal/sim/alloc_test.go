package sim

import "testing"

// The alloc gates pin the kernel's zero-allocation steady state: once the
// event free list is warm, neither the schedule+dispatch cycle nor the
// Sleep park/unpark round trip may touch the heap. They skip under the
// race detector, whose instrumentation allocates.

func TestEventLoopZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	e := NewEngine(1)
	fn := func() {}
	e.After(1, fn)
	e.Run(0) // warm the event free list and heap capacity
	allocs := testing.AllocsPerRun(200, func() {
		e.After(1, fn)
		e.Run(0)
	})
	if allocs != 0 {
		t.Errorf("After+Run cycle allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

func TestSleepZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	const laps = 1000
	e := NewEngine(1)
	body := func(p *Proc) {
		for i := 0; i < laps; i++ {
			p.Sleep(1)
		}
	}
	e.Spawn("warm", body)
	e.Run(0)
	// Each run pays a constant spawn cost (Proc, coroutine, event heap
	// churn); with the engine warm, the laps themselves must add
	// nothing, so any per-lap allocation would show up as >= laps.
	allocs := testing.AllocsPerRun(10, func() {
		e.Spawn("sleeper", body)
		e.Run(0)
	})
	if allocs >= laps {
		t.Errorf("Sleep allocates in steady state: %.1f objects per %d-lap run", allocs, laps)
	}
	if allocs > 32 {
		t.Errorf("spawn+run fixed overhead grew to %.1f objects/run (was under 32)", allocs)
	}
}
