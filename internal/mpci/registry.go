// Provider registry: every MPCI implementation registers a named factory
// here, and every construction site (cluster, benches, cmds, tests) selects
// one through it. Callers that need to know what a provider can do read its
// Capabilities — never its name — so adding a provider never grows a string
// switch anywhere else.
package mpci

import (
	"fmt"
	"sort"

	"splapi/internal/hal"
	"splapi/internal/lapi"
	"splapi/internal/machine"
	"splapi/internal/pipes"
	"splapi/internal/sim"
)

// Capabilities reports what a provider implementation supports. The zero
// value means "none of these".
type Capabilities struct {
	// ZeroCopyRendezvous: rendezvous bodies move by RDMA directly between
	// registered user buffers; no staging copy, no CTS round trip.
	ZeroCopyRendezvous bool
	// NativeFraming: messages are framed over the Pipes reliable byte
	// stream (Figure 1a) rather than LAPI active messages.
	NativeFraming bool
	// EnvelopeResequencing: the transport can reorder envelopes and the
	// provider restores MPI ordering with per-pair sequence numbers.
	EnvelopeResequencing bool
	// CounterCompletions: single-packet eager messages complete by target
	// counters instead of completion handlers (Section 5.2).
	CounterCompletions bool
	// InlineCompletions: completion handlers run in the dispatcher context
	// instead of a separate thread (Section 5.3).
	InlineCompletions bool
	// HysteresisInterrupts: the interrupt dispatcher dwells in the handler
	// hoping to batch packets (the native MPI scheme of Section 6.1).
	HysteresisInterrupts bool
}

// List returns the names of the set capabilities, in declaration order.
func (c Capabilities) List() []string {
	var out []string
	add := func(on bool, name string) {
		if on {
			out = append(out, name)
		}
	}
	add(c.ZeroCopyRendezvous, "zero-copy-rendezvous")
	add(c.NativeFraming, "native-framing")
	add(c.EnvelopeResequencing, "envelope-resequencing")
	add(c.CounterCompletions, "counter-completions")
	add(c.InlineCompletions, "inline-completions")
	add(c.HysteresisInterrupts, "hysteresis-interrupts")
	return out
}

// NodeStack is everything a provider factory builds above one node's HAL.
// Exactly one of Pipes/LAPI is non-nil, matching the provider's transport.
type NodeStack struct {
	Prov  Provider
	Pipes *pipes.Pipes
	LAPI  *lapi.LAPI
}

// Factory builds one provider's full per-node stack.
type Factory struct {
	// Name is the registry key (the -provider flag value).
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Caps are the capabilities instances of this factory will report.
	Caps Capabilities
	// RequiresRdma marks providers that need Params.RdmaSupported; config
	// validation rejects them on machine generations without it.
	RequiresRdma bool
	// Build constructs the stack for one node. The HAL's trace log is
	// already attached; factories propagate it to the layers they build.
	Build func(eng *sim.Engine, par *machine.Params, h *hal.HAL, size int, bar *sim.Barrier) NodeStack
}

// registry state: a lookup map plus a sorted name list, so listings never
// iterate the map (deterministic order everywhere).
var (
	registry      = map[string]Factory{}
	registryNames []string
)

// Register adds a provider factory. Duplicate names are a wiring bug.
func Register(f Factory) {
	if f.Name == "" || f.Build == nil {
		panic("mpci: Register needs a name and a build function")
	}
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("mpci: provider %q registered twice", f.Name))
	}
	registry[f.Name] = f
	registryNames = append(registryNames, f.Name)
	sort.Strings(registryNames)
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	f, ok := registry[name]
	return f, ok
}

// Providers returns all registered factories sorted by name.
func Providers() []Factory {
	out := make([]Factory, 0, len(registryNames))
	for _, n := range registryNames {
		out = append(out, registry[n])
	}
	return out
}

// lapiFactory builds the MPI-LAPI stack of one Section 5 design.
func lapiFactory(design Design) func(eng *sim.Engine, par *machine.Params, h *hal.HAL, size int, bar *sim.Barrier) NodeStack {
	return func(eng *sim.Engine, par *machine.Params, h *hal.HAL, size int, bar *sim.Barrier) NodeStack {
		l := lapi.New(eng, par, h, size, design.LAPIVariant())
		l.SetTrace(h.Trace())
		return NodeStack{Prov: NewLAPI(eng, par, l, size, bar, design), LAPI: l}
	}
}

func init() {
	Register(Factory{
		Name: "native",
		Doc:  "original MPCI over the Pipes byte stream (Figure 1a)",
		Caps: Capabilities{NativeFraming: true, HysteresisInterrupts: true},
		Build: func(eng *sim.Engine, par *machine.Params, h *hal.HAL, size int, bar *sim.Barrier) NodeStack {
			pp := pipes.New(eng, par, h, size)
			pp.SetTrace(h.Trace())
			return NodeStack{Prov: NewNative(eng, par, h, pp, size, bar), Pipes: pp}
		},
	})
	Register(Factory{
		Name:  "mpi-lapi-base",
		Doc:   "MPI-LAPI with threaded completion handlers (Section 4)",
		Caps:  Capabilities{EnvelopeResequencing: true},
		Build: lapiFactory(DesignBase),
	})
	Register(Factory{
		Name:  "mpi-lapi-counters",
		Doc:   "MPI-LAPI completing eager messages by counters (Section 5.2)",
		Caps:  Capabilities{EnvelopeResequencing: true, CounterCompletions: true},
		Build: lapiFactory(DesignCounters),
	})
	Register(Factory{
		Name:  "mpi-lapi-enhanced",
		Doc:   "MPI-LAPI with same-context completion handlers (Section 5.3)",
		Caps:  Capabilities{EnvelopeResequencing: true, InlineCompletions: true},
		Build: lapiFactory(DesignEnhanced),
	})
	Register(Factory{
		Name:         "rdma",
		Doc:          "enhanced MPI-LAPI with zero-copy RDMA-read rendezvous",
		Caps:         Capabilities{EnvelopeResequencing: true, InlineCompletions: true, ZeroCopyRendezvous: true},
		RequiresRdma: true,
		Build: func(eng *sim.Engine, par *machine.Params, h *hal.HAL, size int, bar *sim.Barrier) NodeStack {
			l := lapi.New(eng, par, h, size, lapi.Inline)
			l.SetTrace(h.Trace())
			return NodeStack{Prov: NewRdmaLAPI(eng, par, l, size, bar), LAPI: l}
		},
	})
}
