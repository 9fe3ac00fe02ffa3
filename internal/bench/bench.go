// Package bench contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (Sections 5 and 6): the Figure 10
// comparison of raw LAPI against the three MPI-LAPI designs, the Figure 11
// polling latency and Figure 12 bandwidth comparisons against the native
// MPI, the Figure 13 interrupt-mode latency comparison, and the Section 6.2
// NAS benchmark table.
//
// All measurements are of virtual time on the simulated SP, so results are
// deterministic. Message-size sweeps follow the paper: the eager limit is
// set to 78 bytes for every experiment.
package bench

import (
	"fmt"
	"io"

	"splapi/internal/cluster"
	"splapi/internal/lapi"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/mpi"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// Point is one measurement of a sweep.
type Point struct {
	Size  int
	Value float64 // microseconds (latency) or MB/s (bandwidth)
}

// Series is a labelled sweep.
type Series struct {
	Label  string
	Points []Point
}

// Sizes used by the paper-style sweeps (1 B to 1 MB, powers of four-ish).
func sweepSizes() []int {
	return []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20}
}

// latencySizes focuses on the small-to-medium range of Figures 11 and 13.
func latencySizes() []int {
	return []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}
}

// paperParams returns the SP332 model with the paper's experimental
// settings (eager limit 78 bytes, Section 6).
func paperParams() machine.Params {
	par := machine.SP332()
	par.EagerLimit = 78
	return par
}

const pingIters = 12

// PingPongRoundTrips is the number of round trips one ping-pong cell
// executes (warmup + timed), so wall-clock benchmarks can convert
// cells/sec into round-trips/sec.
const PingPongRoundTrips = pingIters + 2

// MPIPingPong measures one-way latency (microseconds) of MPI_Send/MPI_Recv
// ping-pong between two nodes on the given stack, as in Sections 5.1/6.1.
// With interrupts enabled, the receiver posts MPI_Irecv and checks the
// buffer without calling MPI until the message lands (the Section 6.1
// interrupt-mode methodology).
func MPIPingPong(stack cluster.Stack, size int, interrupts bool) float64 {
	return MPIPingPongTraced(stack, size, interrupts, nil)
}

// MPIPingPongTraced is MPIPingPong with an event log attached to the
// cluster (nil tl means untraced; the timing result is identical either
// way).
func MPIPingPongTraced(stack cluster.Stack, size int, interrupts bool, tl *tracelog.Log) float64 {
	return MPIPingPongOpts(stack, size, interrupts, paperParams(), 1, tl)
}

// MPIPingPongOpts is MPIPingPongTraced with an explicit cost model and seed
// — the entry point the CLI and chaos testing use to run the ping-pong on a
// non-default machine or a faulted fabric.
func MPIPingPongOpts(stack cluster.Stack, size int, interrupts bool, par machine.Params, seed int64, tl *tracelog.Log) float64 {
	c := cluster.New(cluster.Config{
		Nodes: 2, Stack: stack, Seed: seed, Params: &par, Interrupts: interrupts, Trace: tl,
	})
	return runPingPong(c, size, interrupts)
}

// runPingPong executes the ping-pong body on a built cluster and returns
// the one-way latency in microseconds.
func runPingPong(c *cluster.Cluster, size int, interrupts bool) float64 {
	buf := make([]byte, size)
	var elapsed sim.Time
	c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
		w := mpi.NewWorld(prov)
		me := w.Rank()
		other := 1 - me
		recv := func() {
			if interrupts {
				// Section 6.1 interrupt-mode receiver: post the receive,
				// then check for completion without entering MPI.
				req := w.Irecv(p, buf, other, 0)
				for !req.Done() {
					p.Sleep(sim.Microsecond)
				}
				return
			}
			w.Recv(p, buf, other, 0)
		}
		// Warmup round trips.
		for i := 0; i < 2; i++ {
			if me == 0 {
				w.Send(p, buf, other, 0)
				recv()
			} else {
				recv()
				w.Send(p, buf, other, 0)
			}
		}
		w.Barrier(p)
		start := p.Now()
		for i := 0; i < pingIters; i++ {
			if me == 0 {
				w.Send(p, buf, other, 0)
				recv()
			} else {
				recv()
				w.Send(p, buf, other, 0)
			}
		}
		if me == 0 {
			elapsed = p.Now() - start
		}
	})
	return elapsed.Micros() / (2 * pingIters)
}

// RawLAPIPingPong measures one-way latency of a LAPI_Put ping-pong with
// LAPI_Waitcntr, as in Section 5.1.
func RawLAPIPingPong(size int) float64 {
	return RawLAPIPingPongTraced(size, nil)
}

// RawLAPIPingPongTraced is RawLAPIPingPong with an event log attached.
func RawLAPIPingPongTraced(size int, tl *tracelog.Log) float64 {
	return RawLAPIPingPongOpts(size, paperParams(), 1, tl)
}

// RawLAPIPingPongOpts is RawLAPIPingPongTraced with an explicit cost model
// and seed.
func RawLAPIPingPongOpts(size int, par machine.Params, seed int64, tl *tracelog.Log) float64 {
	c := cluster.New(cluster.Config{Nodes: 2, Stack: cluster.RawLAPI, Seed: seed, Params: &par, Trace: tl})
	return runRawLAPIPingPong(c, size)
}

// runRawLAPIPingPong executes the raw-LAPI ping-pong body on a built
// cluster and returns the one-way latency in microseconds.
func runRawLAPIPingPong(c *cluster.Cluster, size int) float64 {
	bufs := [2][]byte{make([]byte, size+1), make([]byte, size+1)}
	var bufID [2]int
	var arrived [2]*lapi.Counter
	var cntrID [2]int
	for i, l := range c.LAPIs {
		bufID[i] = l.RegisterBuffer(bufs[i])
		arrived[i] = l.NewCounter()
		cntrID[i] = l.RegisterCounter(arrived[i])
	}
	var elapsed sim.Time
	c.Run(0, func(p *sim.Proc, rank int) {
		l := c.LAPIs[rank]
		other := 1 - rank
		data := make([]byte, size)
		iters := pingIters + 2
		var start sim.Time
		for i := 0; i < iters; i++ {
			if i == 2 && rank == 0 {
				start = p.Now()
			}
			if rank == 0 {
				org := l.NewCounter()
				l.Put(p, other, bufID[other], 0, data, cntrID[other], org, -1)
				arrived[rank].Wait(p, 1)
			} else {
				arrived[rank].Wait(p, 1)
				org := l.NewCounter()
				l.Put(p, other, bufID[other], 0, data, cntrID[other], org, -1)
			}
		}
		if rank == 0 {
			elapsed = p.Now() - start
		}
	})
	return elapsed.Micros() / (2 * pingIters)
}

// MPIBandwidth measures unidirectional streaming bandwidth (MB/s) with
// MPI_Isend/MPI_Irecv as in Section 6.1: the sender streams count messages
// back to back and stops the clock when the receiver's acknowledgement of
// the last message returns.
func MPIBandwidth(stack cluster.Stack, size, count int) float64 {
	return MPIBandwidthTraced(stack, size, count, nil)
}

// MPIBandwidthTraced is MPIBandwidth with an event log attached.
func MPIBandwidthTraced(stack cluster.Stack, size, count int, tl *tracelog.Log) float64 {
	return MPIBandwidthOpts(stack, size, count, paperParams(), 1, tl)
}

// MPIBandwidthOpts is MPIBandwidthTraced with an explicit cost model and
// seed.
func MPIBandwidthOpts(stack cluster.Stack, size, count int, par machine.Params, seed int64, tl *tracelog.Log) float64 {
	c := cluster.New(cluster.Config{Nodes: 2, Stack: stack, Seed: seed, Params: &par, Trace: tl})
	return runBandwidth(c, size, count)
}

// runBandwidth executes the streaming body on a built cluster and returns
// MB/s.
func runBandwidth(c *cluster.Cluster, size, count int) float64 {
	var elapsed sim.Time
	c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
		w := mpi.NewWorld(prov)
		buf := make([]byte, size)
		ack := make([]byte, 1)
		if w.Rank() == 0 {
			// Warmup.
			w.Send(p, buf, 1, 1)
			w.Recv(p, ack, 1, 2)
			start := p.Now()
			reqs := make([]*mpi.Request, count)
			for i := 0; i < count; i++ {
				reqs[i] = w.Isend(p, buf, 1, 0)
			}
			mpi.WaitAll(p, reqs...)
			w.Recv(p, ack, 1, 2) // acknowledgement of the last message
			elapsed = p.Now() - start
		} else {
			w.Recv(p, buf, 0, 1)
			w.Send(p, ack, 0, 2)
			reqs := make([]*mpi.Request, count)
			for i := 0; i < count; i++ {
				reqs[i] = w.Irecv(p, buf, 0, 0)
			}
			mpi.WaitAll(p, reqs...)
			w.Send(p, ack, 0, 2)
		}
	})
	bytes := float64(size) * float64(count)
	return bytes / (float64(elapsed) / 1e9) / 1e6
}

// runRing executes a barrier-delimited neighbour exchange around a ring:
// every rank streams count messages of size bytes to its right neighbour
// while receiving from its left. Rank 0's elapsed time converts the
// aggregate bytes moved into MB/s. Unlike the two-node streams above, the
// traffic spans the whole job.
func runRing(c *cluster.Cluster, size, count int) float64 {
	n := len(c.HALs)
	var elapsed sim.Time
	c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
		w := mpi.NewWorld(prov)
		me := w.Rank()
		right := (me + 1) % n
		left := (me + n - 1) % n
		sbuf := make([]byte, size)
		rbuf := make([]byte, size)
		// Warmup exchange.
		wr := w.Irecv(p, rbuf, left, 1)
		w.Send(p, sbuf, right, 1)
		mpi.WaitAll(p, wr)
		w.Barrier(p)
		start := p.Now()
		for i := 0; i < count; i++ {
			rr := w.Irecv(p, rbuf, left, 0)
			w.Send(p, sbuf, right, 0)
			mpi.WaitAll(p, rr)
		}
		w.Barrier(p)
		if me == 0 {
			elapsed = p.Now() - start
		}
	})
	bytes := float64(n) * float64(size) * float64(count)
	return bytes / (float64(elapsed) / 1e9) / 1e6
}

// Fig10 regenerates Figure 10: message transfer time of raw LAPI vs the
// MPI-LAPI Base, Counters, and Enhanced designs, 1 B to 1 MB.
func Fig10() []Series { return SeriesOf(Fig10Experiment(), 1, nil) }

// Fig11 regenerates Figure 11: polling-mode latency, native MPI vs
// MPI-LAPI Enhanced.
func Fig11() []Series { return SeriesOf(Fig11Experiment(), 1, nil) }

// Fig12 regenerates Figure 12: streaming bandwidth, native MPI vs MPI-LAPI
// Enhanced.
func Fig12() []Series { return SeriesOf(Fig12Experiment(), 1, nil) }

// Fig13 regenerates Figure 13: interrupt-mode latency, native MPI vs
// MPI-LAPI Enhanced.
func Fig13() []Series { return SeriesOf(Fig13Experiment(), 1, nil) }

// PrintSeries writes a sweep as an aligned table, one row per size.
func PrintSeries(w io.Writer, title, unit string, series []Series) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%12s", "size(B)")
	for _, s := range series {
		fmt.Fprintf(w, "  %22s", s.Label)
	}
	fmt.Fprintf(w, "   [%s]\n", unit)
	for i := range series[0].Points {
		fmt.Fprintf(w, "%12d", series[0].Points[i].Size)
		for _, s := range series {
			fmt.Fprintf(w, "  %22.2f", s.Points[i].Value)
		}
		fmt.Fprintln(w)
	}
}
