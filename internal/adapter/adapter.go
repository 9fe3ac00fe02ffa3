// Package adapter models the SP switch adapter (TB3/TBMX): the DMA engines
// moving packets between host memory (the HAL network buffers) and the
// adapter, the bounded receive FIFO, and interrupt generation.
//
// The send path is a two-stage pipeline modelled with occupancy bookkeeping:
// the send DMA engine copies the packet from the pinned HAL buffer onto the
// adapter, then the link serializes it into the switch. Both stages are
// serial per adapter, so back-to-back packets pipeline: the DMA of packet
// k+1 overlaps the injection of packet k. The receive path mirrors it.
//
// Interrupts: when a packet lands in the receive FIFO and interrupts are
// enabled, the adapter invokes the registered interrupt callback unless a
// previous interrupt fired within the coalescing window.
package adapter

import (
	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/switchnet"
	"splapi/internal/tracelog"
)

// Stats are cumulative adapter counters.
type Stats struct {
	Sent       uint64
	Received   uint64
	FIFODrops  uint64
	Interrupts uint64
	// StallDelays counts packets whose receive DMA was deferred by a
	// scripted adapter stall (fault injection).
	StallDelays uint64
	// Bypassed counts packets delivered straight to a protocol bypass
	// handler (the RDMA data path) instead of the receive FIFO.
	Bypassed uint64
}

// Adapter is one node's switch adapter.
type Adapter struct {
	eng  *sim.Engine
	par  *machine.Params
	fab  *switchnet.Fabric
	inj  *faults.Injector
	node int

	sendDMAFree sim.Time
	egressFree  sim.Time
	recvDMAFree sim.Time

	fifo    []*switchnet.Packet
	arrival sim.Cond

	intrEnabled bool
	intrCB      func()
	enqueueCB   func()
	lastIntr    sim.Time
	intrPrimed  bool // no interrupt has fired yet (ignore coalesce window)

	// bypass maps a protocol byte (payload[0]) to a direct-delivery
	// handler. Matching packets never enter the receive FIFO and raise no
	// interrupt: they model transfers the adapter's DMA engine completes
	// without host software on the data path (RDMA). They still pay the
	// receive-DMA occupancy and stall faults above, and they still
	// traversed the fabric (route spray, CRC stamping, fault plans), so
	// chaos scripts apply to them unchanged. The handler runs in engine
	// context and takes ownership of the packet's pooled payload.
	bypass map[byte]func(*switchnet.Packet)

	stats Stats
	tr    *tracelog.Log
}

// New creates the adapter for node and attaches it to the fabric's port.
func New(eng *sim.Engine, par *machine.Params, fab *switchnet.Fabric, node int) *Adapter {
	a := &Adapter{eng: eng, par: par, fab: fab, inj: fab.Injector(), node: node, intrPrimed: true}
	fab.AttachPort(node, a.fromFabric)
	return a
}

// Node returns the node id this adapter serves.
func (a *Adapter) Node() int { return a.node }

// Stats returns a copy of the cumulative counters.
func (a *Adapter) Stats() Stats { return a.stats }

// SetTrace attaches an event log (nil disables tracing).
func (a *Adapter) SetTrace(tl *tracelog.Log) { a.tr = tl }

// Send injects pkt toward its destination. It must be called in simulation
// context; it does not block (backpressure is the HAL send-buffer pool's
// job). It returns the time at which injection completes, i.e. when the
// pinned send buffer can be reused.
func (a *Adapter) Send(pkt *switchnet.Packet) sim.Time {
	now := a.eng.Now()
	pkt.Wire = len(pkt.Payload) + a.par.LinkFrameBytes

	// Stage 1: send DMA host->adapter.
	dmaStart := now
	if a.sendDMAFree > dmaStart {
		dmaStart = a.sendDMAFree
	}
	dmaDone := dmaStart + a.par.SendDMASetup + a.par.DMATime(pkt.Wire)
	a.sendDMAFree = dmaDone

	// Stage 2: link injection (the fabric also applies route occupancy;
	// egressFree models the single physical link out of this adapter).
	injStart := dmaDone
	if a.egressFree > injStart {
		injStart = a.egressFree
	}
	injDone := injStart + a.par.WireTime(pkt.Wire)
	a.egressFree = injDone

	a.stats.Sent++
	a.tr.Emit(now, tracelog.LAdapter, tracelog.KTxDMA, a.node, pkt.Dst, 0, pkt.Wire, int64(dmaDone-dmaStart))
	a.fab.Send(pkt, injStart)
	return dmaDone
}

// fromFabric is the fabric delivery callback: the packet has arrived at the
// adapter; DMA it into the HAL receive buffers and enqueue it in the FIFO.
func (a *Adapter) fromFabric(pkt *switchnet.Packet) {
	now := a.eng.Now()
	start := now
	if end := a.inj.StallUntil(now, a.node); end > start {
		// Scripted fault: the receive DMA engine is frozen; the packet
		// sits on the adapter until the stall window ends.
		a.stats.StallDelays++
		a.tr.Emit(now, tracelog.LAdapter, tracelog.KStall, a.node, pkt.Src, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.Seq()), pkt.Wire, int64(end-now))
		start = end
	}
	if a.recvDMAFree > start {
		start = a.recvDMAFree
	}
	done := start + a.par.RecvDMASetup + a.par.DMATime(pkt.Wire)
	a.recvDMAFree = done
	a.tr.Emit(now, tracelog.LAdapter, tracelog.KRxDMA, a.node, pkt.Src, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.Seq()), pkt.Wire, int64(done-start))

	a.eng.At(done, func() {
		if len(pkt.Payload) > 0 {
			if h := a.bypass[pkt.Payload[0]]; h != nil {
				a.stats.Bypassed++
				h(pkt)
				return
			}
		}
		if len(a.fifo) >= a.par.RecvFIFOPackets {
			a.stats.FIFODrops++
			a.tr.Emit(a.eng.Now(), tracelog.LAdapter, tracelog.KFIFODrop, a.node, pkt.Src, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.Seq()), pkt.Wire, 0)
			// The packet dies here; its pooled snapshot goes back to the
			// engine (the delivery-path counterpart is HAL dispatch).
			a.eng.Pool().Put(pkt.Payload)
			return
		}
		a.fifo = append(a.fifo, pkt)
		a.stats.Received++
		a.arrival.Broadcast()
		if a.enqueueCB != nil {
			a.enqueueCB()
		}
		a.maybeInterrupt()
	})
}

func (a *Adapter) maybeInterrupt() {
	if !a.intrEnabled || a.intrCB == nil {
		return
	}
	now := a.eng.Now()
	if !a.intrPrimed && now-a.lastIntr < a.par.InterruptCoalesce {
		return
	}
	a.intrPrimed = false
	a.lastIntr = now
	a.stats.Interrupts++
	a.tr.Emit(now, tracelog.LAdapter, tracelog.KIntr, a.node, -1, 0, 0, 0)
	a.intrCB()
}

// SetInterruptCallback registers fn to be invoked (engine context) when a
// packet arrival raises an interrupt.
func (a *Adapter) SetInterruptCallback(fn func()) { a.intrCB = fn }

// SetEnqueueCallback registers fn to be invoked (engine context) whenever a
// packet lands in the receive FIFO, regardless of interrupt state. The HAL
// uses it to wake pollers.
func (a *Adapter) SetEnqueueCallback(fn func()) { a.enqueueCB = fn }

// SetBypass registers a direct-delivery handler for one protocol byte:
// arriving packets whose payload starts with proto are handed to fn after
// the receive DMA completes, skipping the FIFO and raising no interrupt.
// fn owns the packet's pooled payload snapshot and must return it to the
// engine pool. Registering the same proto twice is a wiring bug.
func (a *Adapter) SetBypass(proto byte, fn func(*switchnet.Packet)) {
	if a.bypass == nil {
		a.bypass = make(map[byte]func(*switchnet.Packet))
	}
	if a.bypass[proto] != nil {
		panic("adapter: bypass protocol registered twice")
	}
	a.bypass[proto] = fn
}

// EnableInterrupts turns packet-arrival interrupts on or off.
func (a *Adapter) EnableInterrupts(on bool) {
	a.intrEnabled = on
	if on {
		a.intrPrimed = true
		if len(a.fifo) > 0 {
			a.maybeInterrupt()
		}
	}
}

// InterruptsEnabled reports whether arrival interrupts are on.
func (a *Adapter) InterruptsEnabled() bool { return a.intrEnabled }

// Pending returns the number of packets waiting in the receive FIFO.
func (a *Adapter) Pending() int { return len(a.fifo) }

// Dequeue removes the oldest received packet, if any.
func (a *Adapter) Dequeue() (*switchnet.Packet, bool) {
	if len(a.fifo) == 0 {
		return nil, false
	}
	pkt := a.fifo[0]
	a.fifo = a.fifo[1:]
	return pkt, true
}

// WaitArrival parks p until a packet is in the FIFO, or until timeout
// (timeout <= 0 waits indefinitely). Reports whether a packet is pending.
func (a *Adapter) WaitArrival(p *sim.Proc, timeout sim.Time) bool {
	for len(a.fifo) == 0 {
		if timeout <= 0 {
			a.arrival.Wait(p)
			continue
		}
		deadline := p.Now() + timeout
		if !a.arrival.WaitTimeout(p, timeout) {
			return len(a.fifo) > 0
		}
		if len(a.fifo) > 0 {
			return true
		}
		timeout = deadline - p.Now()
		if timeout <= 0 {
			return false
		}
	}
	return true
}
