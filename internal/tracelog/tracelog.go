// Package tracelog is the event-level tracing subsystem: a bounded,
// virtual-time-stamped ring buffer of typed events emitted at every layer
// boundary of the simulated stack, stitched into message-lifecycle spans
// by causal message IDs threaded sender -> receiver.
//
// Tracing is observational by construction: Emit never schedules an
// event, never consumes engine randomness, and never retains a caller
// buffer (events are fixed-size scalar records). A nil *Log is a valid
// sink — every Emit on it returns immediately — so the disabled path
// costs one pointer test per call site and cannot move a virtual-time
// result.
package tracelog

import "splapi/internal/sim"

// Layer identifies the stack layer that emitted an event. One Perfetto
// track is rendered per node x layer.
type Layer uint8

const (
	LMPI Layer = iota
	LMPCI
	LLAPI
	LPipes
	LHAL
	LAdapter
	LFabric
	numLayers
)

var layerNames = [numLayers]string{
	"mpi", "mpci", "lapi", "pipes", "hal", "adapter", "fabric",
}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "?"
}

// Kind is the typed event at a layer boundary. Kinds whose Arg carries a
// charged duration (ns) feed the critical-path breakdown; see Category.
type Kind uint8

const (
	KNone Kind = iota

	// MPI layer: call enter/exit. Arg = MPI op code (see OpName).
	KMPIEnter
	KMPIExit

	// MPCI layer: protocol transitions. Msg = envelope/frame causal ID.
	KSendEager  // eager send posted; Size = payload bytes
	KSendRdv    // request-to-send posted (rendezvous)
	KRTSAck     // request-to-send acknowledged (clear-to-send)
	KRdvData    // rendezvous body transmitted
	KMatch      // arrival matched a posted receive; Arg = match cost ns
	KUnexpected // early arrival buffered (no posted receive)
	KEarlyClaim // posted receive claimed a buffered early arrival
	KRecvDone   // receive completed into the user buffer
	KSelfSend   // dst == src shortcut, no network

	// LAPI layer. Msg = LAPI message causal ID.
	KAmsend     // active message posted; Size = data bytes
	KMsgHdr     // header packet arrived
	KHdrHandler // user header handler ran; Arg = handler cost ns
	KMsgData    // data packet stored; Size = chunk bytes
	KMsgDone    // message fully reassembled
	KCmplQueued // completion handler queued to the completion thread
	KCmplInline // completion ran inline (enhanced LAPI); Arg = cost ns
	KCounter    // counter update; Arg = update cost ns

	// Generic CPU-cost events (any layer); Arg = charged ns.
	KCopy      // memory copy
	KOverhead  // call/param-check overhead
	KCtxSwitch // thread context switch (completion thread dispatch)

	// Pipes layer (native MPI byte stream). Arg = stream offset.
	KPipeData
	KPipeAck
	KPipeRtx
	KPipeStall
	KPipeOOO
	KPipeDup
	KPipeDeliver

	// LAPI flow control (packet framing under LAPI).
	KFlowSend
	KFlowAck
	KFlowRtx
	KFlowStall
	KFlowDup

	// HAL layer.
	KHALSend     // packet handed to the adapter; Arg = dispatch cost ns
	KHALDispatch // received packet dispatched to a protocol handler; Arg = dispatch cost ns
	KIntrBurst   // interrupt burst entered; Arg = interrupt latency ns

	// Adapter layer. Msg = fabric packet causal ID where known.
	KTxDMA    // send-side DMA; Arg = DMA ns
	KRxDMA    // receive-side DMA; Arg = DMA ns
	KFIFODrop // receive FIFO overflow
	KIntr     // interrupt raised toward the host

	// Fabric layer. Msg = fabric packet causal ID.
	KInject  // packet accepted for transit
	KWire    // serialization + switch latency; Arg = wire ns
	KDeliver // packet delivered to the destination adapter
	KDrop    // packet dropped (fault injection)
	KDup     // packet duplicated (fault injection)

	// Fault-injection and reliability events (appended so earlier kind
	// values stay stable across trace tooling).
	KFlowTimeout // LAPI retransmission timer fired; Size = unacked, Arg = timeout ns
	KCorrupt     // fabric flipped a payload byte; Arg = byte index
	KCrcDrop     // HAL CRC check failed, packet dropped before dispatch
	KRouteMask   // fabric skipped a down route (failover); Arg = route
	KNoRoute     // all routes down, packet dropped; Arg = route count
	KStall       // adapter receive DMA stalled; Arg = stall ns remaining

	// RDMA engine (registered-buffer zero-copy transfers; appended so
	// earlier kind values stay stable across trace tooling).
	KRdmaReg     // region registered; Size = bytes, Arg = registration cost ns
	KRdmaRegHit  // registration cache hit; Size = bytes
	KRdmaDereg   // region deregistered; Size = bytes
	KRdmaRead    // read request issued/served; Size = bytes, Arg = request cost ns
	KRdmaWrite   // write initiated; Size = bytes, Arg = request cost ns
	KRdmaData    // data chunk landed in a registered region; Size = chunk bytes, Arg = chunk index
	KRdmaDone    // operation complete at the initiator; Size = bytes
	KRdmaCrcDrop // RDMA data-path packet failed the link CRC check
	KRdmaRetry   // operation timer fired, missing chunks re-requested; Arg = timeout ns
	KRdmaStale   // packet for an unknown or deregistered rkey dropped

	numKinds
)

var kindNames = [numKinds]string{
	"none",
	"mpi.enter", "mpi.exit",
	"mpci.send-eager", "mpci.send-rdv", "mpci.rts-ack", "mpci.rdv-data",
	"mpci.match", "mpci.unexpected", "mpci.early-claim", "mpci.recv-done",
	"mpci.self-send",
	"lapi.amsend", "lapi.msg-hdr", "lapi.hdr-handler", "lapi.msg-data",
	"lapi.msg-done", "lapi.cmpl-queued", "lapi.cmpl-inline", "lapi.counter",
	"cpu.copy", "cpu.overhead", "cpu.ctx-switch",
	"pipes.data", "pipes.ack", "pipes.rtx", "pipes.stall", "pipes.ooo",
	"pipes.dup", "pipes.deliver",
	"flow.send", "flow.ack", "flow.rtx", "flow.stall", "flow.dup",
	"hal.send", "hal.dispatch", "hal.intr-burst",
	"adapter.tx-dma", "adapter.rx-dma", "adapter.fifo-drop", "adapter.intr",
	"fabric.inject", "fabric.wire", "fabric.deliver", "fabric.drop",
	"fabric.dup",
	"flow.timeout", "fabric.corrupt", "hal.crc-drop", "fabric.route-mask",
	"fabric.no-route", "adapter.stall",
	"rdma.reg", "rdma.reg-hit", "rdma.dereg", "rdma.read", "rdma.write",
	"rdma.data", "rdma.done", "rdma.crc-drop", "rdma.retry", "rdma.stale",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// KindByName inverts Kind.String; it returns KNone for unknown names.
func KindByName(s string) Kind {
	for i, n := range kindNames {
		if n == s {
			return Kind(i)
		}
	}
	return KNone
}

// LayerByName inverts Layer.String; it returns numLayers for unknown names.
func LayerByName(s string) Layer {
	for i, n := range layerNames {
		if n == s {
			return Layer(i)
		}
	}
	return numLayers
}

// MPI op codes carried in KMPIEnter/KMPIExit Arg.
const (
	OpSend = iota + 1
	OpSsend
	OpRsend
	OpBsend
	OpIsend
	OpIssend
	OpIrsend
	OpIbsend
	OpRecv
	OpIrecv
	OpSendrecv
	OpWait
	OpWaitAll
	OpWaitAny
	OpWaitSome
	OpTest
	OpTestAll
	OpProbe
	OpIprobe
	OpBarrier
	numOps
)

var opNames = [numOps]string{
	"?",
	"MPI_Send", "MPI_Ssend", "MPI_Rsend", "MPI_Bsend",
	"MPI_Isend", "MPI_Issend", "MPI_Irsend", "MPI_Ibsend",
	"MPI_Recv", "MPI_Irecv", "MPI_Sendrecv",
	"MPI_Wait", "MPI_Waitall", "MPI_Waitany", "MPI_Waitsome",
	"MPI_Test", "MPI_Testall", "MPI_Probe", "MPI_Iprobe", "MPI_Barrier",
}

// OpName names an MPI op code from a KMPIEnter/KMPIExit Arg.
func OpName(op int64) string {
	if op > 0 && op < numOps {
		return opNames[op]
	}
	return "MPI_?"
}

// Event is one fixed-size trace record. Events hold only scalars — never
// a payload slice — so emitting one cannot retain caller-owned memory.
type Event struct {
	T     sim.Time // virtual time, ns
	Layer Layer
	Kind  Kind
	Node  int32  // emitting node
	Peer  int32  // the remote node involved, -1 if none
	Msg   uint64 // causal message ID (see MsgID packers), 0 if none
	Size  int32  // payload/frame bytes when relevant
	Arg   int64  // kind-specific: charged ns, op code, seq, offset
}

// Causal message-ID domains. IDs are derivable symmetrically at both ends
// of a message without adding a single wire byte (wire changes would move
// packet sizes and hence virtual-time results):
//
//   - lapi:   (src, per-sender LAPI message id) — already on the wire.
//   - env:    (src, dst, per-(src,dst) envelope seq) — the MPI-LAPI
//     provider's uhdr sequence number, already on the wire.
//   - frame:  (src, dst, per-(src,dst) frame ordinal) — native frames are
//     delivered in order per directed pair, so both sides count them.
//   - rdv:    (src, dst, receive-request id) — carried by rendezvous-data
//     headers in both stacks.
//   - packet: (src, dst, per-(src,dst) injection seq) — the fabric's
//     per-pair sequence.
//   - rdmaop: (initiator, per-initiator RDMA operation id) — carried by
//     every RDMA request and data packet.
const (
	domLAPI   = 1
	domEnv    = 2
	domFrame  = 3
	domRdv    = 4
	domPacket = 5
	domRdmaOp = 6
)

// LAPIMsgID packs a LAPI-layer message identity.
func LAPIMsgID(src int, id uint64) uint64 {
	return domLAPI<<56 | uint64(src)<<48 | id&(1<<48-1)
}

// EnvID packs an MPI-LAPI envelope identity.
func EnvID(src, dst int, seq uint32) uint64 {
	return domEnv<<56 | uint64(src)<<48 | uint64(dst)<<40 | uint64(seq)
}

// FrameID packs a native-stack frame identity.
func FrameID(src, dst int, ord uint64) uint64 {
	return domFrame<<56 | uint64(src)<<48 | uint64(dst)<<40 | ord&(1<<40-1)
}

// RdvID packs a rendezvous-data identity from the receive-request id the
// clear-to-send carried.
func RdvID(src, dst int, reqID uint32) uint64 {
	return domRdv<<56 | uint64(src)<<48 | uint64(dst)<<40 | uint64(reqID)
}

// RdmaOpID packs an RDMA operation identity from the initiating node and
// its per-initiator operation id (carried on every request/data packet).
func RdmaOpID(initiator int, op uint32) uint64 {
	return domRdmaOp<<56 | uint64(initiator)<<48 | uint64(op)
}

// PacketID packs a fabric packet identity from its endpoints and its
// per-ordered-pair injection sequence.
func PacketID(src, dst int, seq uint64) uint64 {
	return domPacket<<56 | uint64(src)<<48 | uint64(dst)<<40 | seq&(1<<40-1)
}

// DefaultCap is the ring capacity used when New is given n <= 0: 2^18
// events (~10 MiB) — enough for every experiment cell in the registry.
const DefaultCap = 1 << 18

// Log is a bounded ring buffer of events. It is engine-free (callers pass
// the virtual timestamp) so one can be constructed before the cluster it
// observes. The zero capacity ring drops nothing until wrap, after which
// the oldest events are overwritten.
type Log struct {
	buf   []Event
	next  int
	total uint64
}

// New builds a Log with the given event capacity (DefaultCap if n <= 0).
func New(n int) *Log {
	if n <= 0 {
		n = DefaultCap
	}
	return &Log{buf: make([]Event, n)}
}

// Emit appends one event. It is the nil-sink fast path: with tracing
// disabled (l == nil) it returns after a single comparison.
func (l *Log) Emit(t sim.Time, layer Layer, kind Kind, node, peer int, msg uint64, size int, arg int64) {
	if l == nil {
		return
	}
	l.buf[l.next] = Event{
		T: t, Layer: layer, Kind: kind,
		Node: int32(node), Peer: int32(peer),
		Msg: msg, Size: int32(size), Arg: arg,
	}
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
	}
	l.total++
}

// Enabled reports whether events are being recorded.
func (l *Log) Enabled() bool { return l != nil }

// Len returns the number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	if l.total < uint64(len(l.buf)) {
		return int(l.total)
	}
	return len(l.buf)
}

// Dropped returns how many events were overwritten after the ring wrapped.
func (l *Log) Dropped() uint64 {
	if l == nil || l.total <= uint64(len(l.buf)) {
		return 0
	}
	return l.total - uint64(len(l.buf))
}

// Events returns the retained events in emission order (oldest first).
// The returned slice is a copy; the ring keeps recording.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	if l.total <= uint64(len(l.buf)) {
		return append([]Event(nil), l.buf[:l.total]...)
	}
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}
