package main

import "testing"

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "workload", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sweep.Run", Start: 10, End: 90},
		// Two workers: overlapping cells cover [20,60) and [50,70) = 50.
		{ID: 3, Parent: 2, Name: "Cell.Run", Start: 20, End: 60},
		{ID: 4, Parent: 2, Name: "Cell.Run", Start: 50, End: 70},
		// A child sticking out of its parent counts only inside it.
		{ID: 5, Parent: 2, Name: "Cell.Run", Start: 85, End: 95},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 80, 2: 80 - (50 + 5), 3: 40, 4: 20, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	stats := spanStats(spans)
	if stats[0].Name != "Cell.Run" || stats[0].Count != 3 {
		t.Errorf("largest self time should be Cell.Run x3, got %+v", stats[0])
	}
}

func TestCoveredMergesAdjacentAndDisjoint(t *testing.T) {
	kids := []Span{{Start: 0, End: 10}, {Start: 10, End: 20}, {Start: 30, End: 40}, {Start: 35, End: 38}}
	if got := covered(0, 100, kids); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
	if got := covered(5, 32, kids); got != 17 {
		t.Errorf("clipped covered = %d, want 17", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("no children covered %d", got)
	}
}

func TestSweepOverheads(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "batch", Start: 0, End: 1e9},
		{ID: 2, Parent: 1, Name: "sweep.Run", Start: 0, End: 1e9},
		{ID: 3, Parent: 2, Name: "Cell.Run", Start: 0, End: 6e8},
		{ID: 4, Parent: 2, Name: "Cell.Run", Start: 1e8, End: 9e8},
		// Another batch's run is not counted.
		{ID: 5, Name: "sweep.Run", Start: 0, End: 5e9},
	}
	idle, agg := sweepOverheads(spans, 1, 2)
	// 2 workers x 1 s - (0.6 + 0.8) s busy = 0.6 s idle; cells cover
	// [0, 0.9 s), so 100 ms of the run is aggregation.
	if idle < 0.6-1e-9 || idle > 0.6+1e-9 {
		t.Errorf("pool idle = %g s, want 0.6", idle)
	}
	if agg < 100-1e-6 || agg > 100+1e-6 {
		t.Errorf("aggregate = %g ms, want 100", agg)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %g", m)
	}
	if q := quantile(xs, 0.9); q < 4.6-1e-9 || q > 4.6+1e-9 {
		t.Errorf("p90 = %g, want 4.6", q)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if n := beyond(xs, 0.5); n != 2 {
		t.Errorf("beyond p50 = %d, want 2", n)
	}
}
