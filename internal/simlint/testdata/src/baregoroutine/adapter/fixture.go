// Fixture: bare goroutines and channel sends in a simulation-domain
// package must be flagged; the allow directive is the escape hatch for
// an intentional exception.
package adapter

func fire(done chan struct{}) {
	go func() { // want `bare goroutine`
		done <- struct{}{} // want `channel send`
	}()
}

func fireNamed(f func()) {
	go f() // want `bare goroutine`
}

// handOff models the forbidden pattern the analyzer exists to catch:
// handing a simulated event to another piece of simulated code over a
// host channel instead of scheduling it on the engine (sim.Engine.At).
// The send wakes its receiver outside the engine's serial schedule.
func handOff(peer chan int, payload int) {
	peer <- payload // want `channel send`
}

func allowed(done chan struct{}) {
	//simlint:allow baregoroutine fixture demonstrating the directive
	go func() { done <- struct{}{} }()
}

func allowedSend(ctl chan int) {
	//simlint:allow baregoroutine fixture demonstrating the directive on a send
	ctl <- 1
}
