package main

import (
	"time"

	"splapi/internal/cluster"
	"splapi/internal/machine"
	"splapi/internal/sim"
)

// probes times the kernel and cluster entry points in isolation and adds
// the medians: sim.ns_per_park (one Proc.Sleep park/unpark round trip),
// sim.ns_per_event (one Engine.After plus its dispatch by Run), and
// cluster.new_ms (cluster.New at 2, 4 and 16 nodes, summed).
func probes(c counts) {
	const reps = 15
	var park, event, build []float64
	for i := 0; i < reps; i++ {
		park = append(park, nsPerPark(20000))
		event = append(event, nsPerEvent(50000))
		build = append(build, clusterNewMs())
	}
	c["sim.ns_per_park"] = median(park)
	c["sim.ns_per_event"] = median(event)
	c["cluster.new_ms"] = median(build)
}

func nsPerPark(n int) float64 {
	e := sim.NewEngine(1)
	e.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	t0 := time.Now()
	e.Run(0)
	return float64(time.Since(t0)) / float64(n)
}

func nsPerEvent(n int) float64 {
	e := sim.NewEngine(1)
	fn := func() {}
	// A standing batch keeps the event heap at a realistic depth.
	const batch = 512
	t0 := time.Now()
	for i := 0; i < n; i += batch {
		for j := 0; j < batch; j++ {
			e.After(sim.Time(j), fn)
		}
		e.Run(0)
	}
	return float64(time.Since(t0)) / float64(n)
}

func clusterNewMs() float64 {
	par := machine.SP332()
	var total time.Duration
	for _, nodes := range []int{2, 4, 16} {
		t0 := time.Now()
		cluster.New(cluster.Config{Nodes: nodes, Stack: cluster.LAPIEnhanced, Seed: 1, Params: &par})
		total += time.Since(t0)
	}
	return ms(total)
}
