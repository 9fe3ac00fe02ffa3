// Package machine holds the cost model for the simulated IBM RS/6000 SP
// system: link and adapter rates, per-byte copy costs, software overheads,
// and the protocol constants the paper's evaluation depends on.
//
// The preset SP332 is calibrated to era-plausible constants for a 332 MHz
// PowerPC SMP node with a TBMX adapter (the configuration of Section 6 of
// the paper). Absolute values are approximations; the experiments reproduce
// the paper's qualitative shape, not its exact microseconds.
package machine

import (
	"splapi/internal/faults"
	"splapi/internal/sim"
)

// Params is the full cost model. All times are virtual nanoseconds
// (sim.Time); all rates are expressed as ns-per-byte for convenience.
type Params struct {
	// ---- Fabric ----

	// LinkBytesPerSec is the per-direction link bandwidth between a node
	// and the switch (the SP switch delivered up to ~150 MB/s each way).
	LinkBytesPerSec float64
	// SwitchBaseLatency is the base transit latency through the switch
	// for any packet, excluding serialization.
	SwitchBaseLatency sim.Time
	// RouteSkew is the extra latency of route r in {0,1,2,3}: route r adds
	// r*RouteSkew. Different skews cause genuine out-of-order arrival when
	// packets of one message are sprayed across routes.
	RouteSkew sim.Time
	// RoutesPerPair is the number of switch routes between each node pair
	// (4 on the SP).
	RoutesPerPair int
	// PacketPayload is the maximum payload bytes per switch packet
	// (~1 KB on the SP switch).
	PacketPayload int
	// LinkFrameBytes is the link-level framing overhead per packet
	// (routing bytes, CRC) added to every packet on the wire.
	LinkFrameBytes int

	// ---- Adapter ----

	// SendDMASetup / RecvDMASetup is the fixed per-packet cost of starting
	// a DMA transfer between host memory and the adapter.
	SendDMASetup sim.Time
	RecvDMASetup sim.Time
	// AdapterBytesPerSec is the DMA engine bandwidth between host and
	// adapter memory.
	AdapterBytesPerSec float64
	// RecvFIFOPackets is the capacity of the adapter's receive FIFO;
	// overflow drops packets (reliability protocols must recover).
	RecvFIFOPackets int
	// SendBuffers is the number of pinned HAL network send buffers; a
	// sender blocks when all are awaiting injection (backpressure).
	SendBuffers int
	// InterruptLatency is the delay from packet arrival to the interrupt
	// dispatcher starting to run (interrupt delivery + kernel dispatch).
	InterruptLatency sim.Time

	// ---- Node software costs ----

	// MemcpyNsPerByte is the cost of copying one byte within host memory
	// (user buffer <-> pipe buffer, HAL buffer <-> user buffer, ...).
	MemcpyNsPerByte float64
	// PacketDispatch is the per-packet software cost of the dispatcher
	// (header parse, demultiplex) in either stack.
	PacketDispatch sim.Time
	// SendCallOverhead is the fixed software cost of initiating a send at
	// the transport layer (building the descriptor, handshaking with HAL).
	SendCallOverhead sim.Time
	// ThreadContextSwitch is the cost of dispatching work to another
	// kernel thread (LAPI completion handlers run on a separate thread in
	// the Base design; Section 5.2 identifies this as the dominant cost).
	ThreadContextSwitch sim.Time
	// InlineHandlerOverhead is the cost of running a predefined completion
	// handler in the same context (the Enhanced LAPI of Section 5.3).
	InlineHandlerOverhead sim.Time
	// MatchCost is the cost of posting/matching a receive in the MPCI
	// matching layer, including the lock/unlock the paper mentions.
	MatchCost sim.Time
	// ParamCheckCost is the extra parameter checking of LAPI's exposed
	// interface (the native Pipes interface is internal and skips it).
	ParamCheckCost sim.Time
	// HeaderHandlerCost is the cost of executing a LAPI header handler.
	HeaderHandlerCost sim.Time
	// CounterUpdateCost is the cost of updating a LAPI counter.
	CounterUpdateCost sim.Time

	// ---- Interrupt-mode behaviour ----

	// NativeHysteresisDwell is the time the native MPI interrupt handler
	// dwells waiting for more packets before returning (the hysteresis
	// scheme of Section 6.1); during the dwell, completions it produced
	// are not yet visible to the user thread. LAPI has no hysteresis.
	NativeHysteresisDwell sim.Time
	// InterruptCoalesce is the adapter-level window within which
	// subsequent packet arrivals do not raise a fresh interrupt.
	InterruptCoalesce sim.Time

	// ---- Protocol constants ----

	// HeaderBytesNative / HeaderBytesLAPI are the per-message header sizes
	// of the two stacks (Section 6.1: LAPI headers are larger, one factor
	// behind its slightly higher tiny-message latency).
	HeaderBytesNative int
	HeaderBytesLAPI   int
	// EagerLimit is the eager/rendezvous switch point in bytes. The MPI
	// default is 4096; every experiment in the paper sets it to 78.
	EagerLimit int
	// PipeHeadTailCopyBytes is the native stack's copy rule (Section 2):
	// the first and last this-many bytes of every message are copied
	// user<->pipe buffers; the middle of larger messages moves directly.
	PipeHeadTailCopyBytes int
	// PipeWindowBytes is the Pipes sliding-window (and resequencing
	// buffer) size per ordered pair.
	PipeWindowBytes int
	// EarlyArrivalBytes is the per-task early-arrival buffer capacity.
	EarlyArrivalBytes int
	// RetransmitTimeout is the ack/retransmit timer for both reliable
	// layers (Pipes and LAPI). LAPI's flow layer treats it as the base
	// of an adaptive timeout: each expiry doubles the timeout
	// (exponential backoff) up to RetransmitMax, and any cumulative-ack
	// progress resets it to this base.
	RetransmitTimeout sim.Time
	// RetransmitMax caps LAPI's adaptive retransmission backoff. Zero
	// disables the cap (unbounded doubling).
	RetransmitMax sim.Time
	// AckDelay is how long a receiver may delay a standalone ack hoping
	// to piggyback it.
	AckDelay sim.Time

	// ---- RDMA (registered-buffer zero-copy transfers) ----

	// RdmaSupported gates the adapter's RDMA engines. When false the
	// registration calls panic, modelling a machine generation without the
	// capability; the rdma MPCI provider refuses to construct.
	RdmaSupported bool
	// RdmaRegisterBase is the fixed software cost of registering (pinning
	// and translating) a memory region with the adapter.
	RdmaRegisterBase sim.Time
	// RdmaRegisterPerPage is the additional registration cost per page of
	// the region (page-table walk + pinning per page).
	RdmaRegisterPerPage sim.Time
	// RdmaPageBytes is the page size the registration cost is charged in.
	RdmaPageBytes int
	// RdmaRequestCost is the adapter-side software cost of issuing or
	// serving one RDMA read/write request descriptor (no copy: the data
	// path is pure DMA).
	RdmaRequestCost sim.Time
	// RdmaRetryTimeout is the initiator's per-operation timer: chunks
	// still missing when it expires are re-requested (doubling up to
	// RetransmitMax like LAPI's flow layer).
	RdmaRetryTimeout sim.Time

	// ---- Fault injection (zero value = clean fabric) ----

	// Faults is the scripted fault plan consumed by the fabric, the
	// adapters and the HAL: time-windowed drop/dup/corrupt bursts,
	// per-route link outages and adapter receive-DMA stalls. The empty
	// plan is the clean fabric and consumes no engine randomness, so
	// benchmark runs are bit-identical with or without the subsystem.
	// Use faults.Uniform for flat per-packet drop/dup probabilities.
	Faults faults.Plan
}

// SP332 returns the calibrated cost model for the paper's test system:
// 332 MHz PowerPC nodes with TBMX adapters.
func SP332() Params {
	return Params{
		LinkBytesPerSec:   150e6,
		SwitchBaseLatency: 3 * sim.Microsecond,
		RouteSkew:         300 * sim.Nanosecond,
		RoutesPerPair:     4,
		PacketPayload:     1024,
		LinkFrameBytes:    16,

		SendDMASetup:       900 * sim.Nanosecond,
		RecvDMASetup:       900 * sim.Nanosecond,
		AdapterBytesPerSec: 100e6,
		RecvFIFOPackets:    512,
		SendBuffers:        64,
		InterruptLatency:   35 * sim.Microsecond,

		MemcpyNsPerByte:       3.75, // ~267 MB/s copy on a 332 MHz node
		PacketDispatch:        6 * sim.Microsecond,
		SendCallOverhead:      3 * sim.Microsecond,
		ThreadContextSwitch:   28 * sim.Microsecond,
		InlineHandlerOverhead: 800 * sim.Nanosecond,
		MatchCost:             1500 * sim.Nanosecond,
		ParamCheckCost:        900 * sim.Nanosecond,
		HeaderHandlerCost:     900 * sim.Nanosecond,
		CounterUpdateCost:     200 * sim.Nanosecond,

		NativeHysteresisDwell: 120 * sim.Microsecond,
		InterruptCoalesce:     5 * sim.Microsecond,

		RdmaSupported:       true,
		RdmaRegisterBase:    8 * sim.Microsecond,
		RdmaRegisterPerPage: 450 * sim.Nanosecond,
		RdmaPageBytes:       4096,
		RdmaRequestCost:     2 * sim.Microsecond,
		RdmaRetryTimeout:    2 * sim.Millisecond,

		HeaderBytesNative:     32,
		HeaderBytesLAPI:       72,
		EagerLimit:            4096,
		PipeHeadTailCopyBytes: 16 * 1024,
		PipeWindowBytes:       64 * 1024,
		EarlyArrivalBytes:     1 << 20,
		RetransmitTimeout:     2 * sim.Millisecond,
		RetransmitMax:         32 * sim.Millisecond,
		AckDelay:              100 * sim.Microsecond,
	}
}

// CopyCost returns the virtual time to memcpy n bytes.
func (p *Params) CopyCost(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(float64(n) * p.MemcpyNsPerByte)
}

// WireTime returns the serialization time of n bytes on the link.
func (p *Params) WireTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(float64(n) / p.LinkBytesPerSec * 1e9)
}

// DMATime returns the host<->adapter transfer time of n bytes, excluding
// setup.
func (p *Params) DMATime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(float64(n) / p.AdapterBytesPerSec * 1e9)
}

// PacketsFor returns the number of switch packets needed for n payload
// bytes (at least 1: zero-byte messages still send a header packet).
func (p *Params) PacketsFor(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + p.PacketPayload - 1) / p.PacketPayload
}

// SP160 returns a cost model for the earlier 160 MHz P2SC uniprocessor
// nodes with TB3 adapters (the paper's other hardware generation): slower
// copies and software paths, a slightly slower adapter, same switch.
func SP160() Params {
	p := SP332()
	p.AdapterBytesPerSec = 85e6
	p.MemcpyNsPerByte = 7.0
	p.PacketDispatch = 11 * sim.Microsecond
	p.SendCallOverhead = 5 * sim.Microsecond
	p.ThreadContextSwitch = 45 * sim.Microsecond
	p.InlineHandlerOverhead = 1500 * sim.Nanosecond
	p.MatchCost = 2500 * sim.Nanosecond
	p.ParamCheckCost = 1500 * sim.Nanosecond
	p.HeaderHandlerCost = 1500 * sim.Nanosecond
	p.InterruptLatency = 55 * sim.Microsecond
	p.NativeHysteresisDwell = 180 * sim.Microsecond
	// The TB3 generation predates the registered-buffer DMA engines; the
	// rdma provider must refuse to run on it (cliconf validates).
	p.RdmaSupported = false
	return p
}

// RdmaRegisterCost returns the virtual time to register an n-byte region:
// the fixed pin/translate cost plus a per-page charge.
func (p *Params) RdmaRegisterCost(n int) sim.Time {
	pages := 1
	if p.RdmaPageBytes > 0 && n > 0 {
		pages = (n + p.RdmaPageBytes - 1) / p.RdmaPageBytes
	}
	return p.RdmaRegisterBase + sim.Time(pages)*p.RdmaRegisterPerPage
}
