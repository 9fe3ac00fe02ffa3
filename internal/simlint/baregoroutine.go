package simlint

import "go/ast"

// Baregoroutine forbids `go` statements and channel sends in simulation
// packages. The sim kernel runs one thread of control at a time: the
// engine's event loop or one Proc, each Proc a runtime coroutine that the
// engine resumes and that parks by yielding back. A bare goroutine runs
// concurrently with simulated code, races with it, and injects
// host-scheduler nondeterminism into virtual time. Processes must be
// created with sim.Engine.Spawn; the kernel itself starts no goroutine.
//
// Channel sends are the same hazard: a send wakes a receiver outside the
// engine's coroutine switches, so two pieces of simulated code run at once
// and their order depends on the host scheduler. The kernel needs no
// channel either, so no send in a simulation package is sanctioned; an
// effect is scheduled as an engine event (Engine.At / After) or waits on
// a sim primitive.
var Baregoroutine = &Analyzer{
	Name:      "baregoroutine",
	Doc:       "forbid bare `go` statements and channel sends in simulation packages; use sim.Engine.Spawn / sim.Engine.At",
	AppliesTo: InSimDomain,
	Run:       baregoroutineRun,
}

func baregoroutineRun(pass *Pass) {
	for _, f := range pass.Unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(s.Pos(),
					"bare goroutine in a simulation package: it runs concurrently with the engine's coroutine processes; use sim.Engine.Spawn")
			case *ast.SendStmt:
				pass.Reportf(s.Pos(),
					"channel send in a simulation package: it wakes its receiver outside the engine's serial schedule; schedule the effect with sim.Engine.At or block on a sim primitive")
			}
			return true
		})
	}
}
