package simlint

import "go/ast"

// Baregoroutine forbids `go` statements and channel sends in simulation
// packages. The sim kernel multiplexes all simulated control flow over a
// single token (one Proc or the engine runs at a time); a bare goroutine
// runs concurrently with simulated code, races with it, and injects
// host-scheduler nondeterminism into virtual time. Processes must be
// created with sim.Engine.Spawn, which owns the only legal `go`
// statement.
//
// Channel sends are the same hazard: the engine hands its one execution
// token to a process with a send on the process's resume channel and
// takes it back with a send on its control channel, so those sends are
// the scheduler. Any other send wakes a receiver outside that handoff —
// two pieces of simulated code then run at once, and their order depends
// on the host scheduler. The kernel's token-handoff sends carry
// //simlint:allow annotations; everything else must schedule its effect
// as an engine event (Engine.At / After) or block on a sim primitive.
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
					"bare goroutine in a simulation package: real goroutines race with the cooperative Proc scheduler; use sim.Engine.Spawn")
			case *ast.SendStmt:
				pass.Reportf(s.Pos(),
					"channel send in a simulation package: host channels bypass the engine's serial token handoff; schedule the effect with sim.Engine.At or block on a sim primitive")
			}
			return true
		})
	}
}
