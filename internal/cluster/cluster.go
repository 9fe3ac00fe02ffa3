// Package cluster assembles a simulated IBM RS/6000 SP system: N nodes with
// adapters on a switch fabric, each running one MPI task over a chosen
// protocol stack, and runs SPMD programs on it under the discrete-event
// engine.
package cluster

import (
	"fmt"

	"splapi/internal/adapter"
	"splapi/internal/hal"
	"splapi/internal/lapi"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/pipes"
	"splapi/internal/sim"
	"splapi/internal/switchnet"
	"splapi/internal/tracelog"
)

// Stack selects the protocol stack of Figure 1 (plus the Section 5 MPI-LAPI
// designs). Its value is the mpci provider-registry name, except RawLAPI,
// which builds no MPCI at all.
type Stack string

// Available stacks.
const (
	// Native is MPI / MPCI / Pipes / HAL (Figure 1a).
	Native Stack = "native"
	// LAPIBase is MPI / new MPCI / LAPI / HAL with threaded completion
	// handlers (the Section 4 base design).
	LAPIBase Stack = "mpi-lapi-base"
	// LAPICounters avoids completion handlers for eager messages using
	// exchanged counters (Section 5.2).
	LAPICounters Stack = "mpi-lapi-counters"
	// LAPIEnhanced uses the enhanced LAPI with same-context predefined
	// completion handlers (Section 5.3).
	LAPIEnhanced Stack = "mpi-lapi-enhanced"
	// RDMA is the enhanced MPI-LAPI with the zero-copy RDMA-read
	// rendezvous (needs Params.RdmaSupported).
	RDMA Stack = "rdma"
	// RawLAPI builds only the LAPI endpoints (no MPCI); benchmarks use it
	// to measure bare LAPI performance as in Figure 10.
	RawLAPI Stack = "raw-lapi"
)

func (s Stack) String() string { return string(s) }

// Design returns the MPCI design for LAPI-backed stacks.
func (s Stack) Design() mpci.Design {
	switch s {
	case LAPICounters:
		return mpci.DesignCounters
	case LAPIEnhanced, RDMA:
		return mpci.DesignEnhanced
	default:
		return mpci.DesignBase
	}
}

// Config describes the system to build.
type Config struct {
	Nodes int
	Stack Stack
	Seed  int64
	// Params is the cost model; zero value means machine.SP332().
	Params *machine.Params
	// Interrupts arms packet-arrival interrupts on every node.
	Interrupts bool
	// Trace, when non-nil, receives a typed event at every layer boundary
	// of every node. Tracing is purely observational: it schedules no
	// events and consumes no randomness, so virtual-time results are
	// identical with it on or off.
	Trace *tracelog.Log
}

// Cluster is a built system: every node runs on the one engine Eng.
type Cluster struct {
	Eng      *sim.Engine
	Par      *machine.Params
	Stack    Stack
	Fabric   *switchnet.Fabric
	Adapters []*adapter.Adapter
	HALs     []*hal.HAL
	Pipes    []*pipes.Pipes
	LAPIs    []*lapi.LAPI
	Provs    []mpci.Provider
	Barrier  *sim.Barrier
}

// New builds a cluster per cfg.
func New(cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		panic("cluster: need at least one node")
	}
	par := cfg.Params
	if par == nil {
		p := machine.SP332()
		par = &p
	}
	eng := sim.NewEngine(cfg.Seed)
	c := &Cluster{
		Eng:     eng,
		Par:     par,
		Stack:   cfg.Stack,
		Fabric:  switchnet.New(eng, par, cfg.Nodes),
		Barrier: sim.NewBarrier(cfg.Nodes),
	}
	c.Fabric.SetTrace(cfg.Trace)

	for i := 0; i < cfg.Nodes; i++ {
		ad := adapter.New(eng, par, c.Fabric, i)
		ad.SetTrace(cfg.Trace)
		h := hal.New(eng, par, ad)
		// The HAL carries the log for the whole node: stacked layers fetch
		// it in their constructors, so it must be attached before them.
		h.SetTrace(cfg.Trace)
		c.Adapters = append(c.Adapters, ad)
		c.HALs = append(c.HALs, h)
		if cfg.Stack == RawLAPI {
			l := lapi.New(eng, par, h, cfg.Nodes, lapi.Inline)
			l.SetTrace(cfg.Trace)
			c.LAPIs = append(c.LAPIs, l)
		} else {
			f, ok := mpci.Lookup(string(cfg.Stack))
			if !ok {
				panic(fmt.Sprintf("cluster: unknown stack %q", cfg.Stack))
			}
			ns := f.Build(eng, par, h, cfg.Nodes, c.Barrier)
			if ns.Pipes != nil {
				c.Pipes = append(c.Pipes, ns.Pipes)
			}
			if ns.LAPI != nil {
				c.LAPIs = append(c.LAPIs, ns.LAPI)
			}
			c.Provs = append(c.Provs, ns.Prov)
		}
		if cfg.Interrupts {
			h.EnableInterrupts(true)
		}
	}
	return c
}

// Now returns the job's virtual time.
func (c *Cluster) Now() sim.Time { return c.Eng.Now() }

// Spawn starts fn as rank's task process.
func (c *Cluster) Spawn(rank int, fn func(p *sim.Proc)) {
	c.Eng.Spawn(fmt.Sprintf("rank-%d", rank), fn)
}

// Run spawns fn on every rank and runs the engine to quiescence (or the
// horizon, if positive). It returns the final virtual time.
func (c *Cluster) Run(horizon sim.Time, fn func(p *sim.Proc, rank int)) sim.Time {
	for r := 0; r < len(c.HALs); r++ {
		r := r
		c.Spawn(r, func(p *sim.Proc) { fn(p, r) })
	}
	c.Eng.Run(horizon)
	return c.Now()
}

// RunMPI spawns an SPMD function per rank with its MPCI provider.
func (c *Cluster) RunMPI(horizon sim.Time, fn func(p *sim.Proc, prov mpci.Provider)) sim.Time {
	if c.Provs == nil {
		panic("cluster: stack has no MPCI provider (RawLAPI)")
	}
	return c.Run(horizon, func(p *sim.Proc, rank int) { fn(p, c.Provs[rank]) })
}
