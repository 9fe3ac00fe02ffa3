package mpci

import (
	"encoding/binary"
	"fmt"

	"splapi/internal/hal"
	"splapi/internal/lapi"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// Design selects which MPI-LAPI implementation of Section 5 to run.
type Design int

const (
	// DesignBase is the Section 4 implementation: completion handlers on
	// a separate thread (context switch per message).
	DesignBase Design = iota
	// DesignCounters avoids completion handlers for eager messages by
	// using target counters whose ids are exchanged at initialization
	// (Section 5.2). Rendezvous still uses threaded completion handlers.
	DesignCounters
	// DesignEnhanced uses the enhanced LAPI whose predefined completion
	// handlers run in the same context (Section 5.3).
	DesignEnhanced
)

func (d Design) String() string {
	switch d {
	case DesignCounters:
		return "counters"
	case DesignEnhanced:
		return "enhanced"
	default:
		return "base"
	}
}

// LAPIVariant returns the LAPI completion regime a design needs.
func (d Design) LAPIVariant() lapi.Variant {
	if d == DesignEnhanced {
		return lapi.Inline
	}
	return lapi.Threaded
}

// MPI-LAPI user-header kinds (Figures 3-9, plus the zero-copy rendezvous
// of the rdma provider).
const (
	uEager     byte = 1
	uRTS       byte = 2
	uRTSAck    byte = 3
	uRdvData   byte = 4
	uBsendDone byte = 5
	// uRTSZ is a request-to-send whose body the receiver pulls by RDMA
	// read from the sender's registered region (rkey in [28:32]).
	uRTSZ byte = 6
	// uRdvDoneZ notifies the sender that the receiver's pull completed:
	// the send request is done and its region can be released.
	uRdvDoneZ byte = 7
)

// uhdr layout, padded so that the total on-wire header matches
// Params.HeaderBytesLAPI (the larger MPI-LAPI header of Section 6.1):
//
//	[0]=kind [1]=mode [2]=blocking [3]=pad [4:8]=seq [8:12]=ctx
//	[12:16]=tag [16:20]=size [20:24]=reqID [24:28]=auxID [28:32]=rkey
//
// The rkey field lives in what was padding for every pre-RDMA kind, so
// adding it changes no wire sizes (HeaderBytesLAPI already covers it).
const uhdrMin = 32

// LAPIProvider is the new, thinner MPCI over LAPI (Figure 1c).
type LAPIProvider struct {
	eng    *sim.Engine
	par    *machine.Params
	l      *lapi.LAPI
	rank   int
	size   int
	bar    *sim.Barrier
	design Design

	core matchCore

	hid int // the single header handler id for all MPCI messages

	sendReqs []*SendReq
	recvReqs []*RecvReq

	// Envelope sequencing: LAPI does not order messages, so eager/RTS
	// envelopes carry per-destination sequence numbers and are processed
	// for matching strictly in send order.
	envSeqOut []uint32
	envSeqIn  []uint32
	envOOO    []map[uint32]*earlyMsg

	// Counters design state: one counter per source, ids exchanged at
	// init; per-source FIFO of in-progress eager messages.
	pairCntr []*lapi.Counter
	inflight [][]*inflightEager

	// Deferred work that must not run in header-handler context
	// (e.g. acknowledging a late-matched request-to-send).
	deferred []func(p *sim.Proc)
	defCond  sim.Cond

	// zc is the node's RDMA engine when this provider runs the zero-copy
	// rendezvous (rdma provider, rdmaprov.go); nil otherwise.
	zc *hal.RdmaEngine

	bsendBuf   []byte
	bsendUsed  int
	bsendSlots map[uint32]int
	nextSlot   uint32

	stats ProviderStats
	tr    *tracelog.Log
}

// NewLAPI builds the MPI-LAPI MPCI for one task. The LAPI endpoint must
// have been created with design.LAPIVariant().
func NewLAPI(eng *sim.Engine, par *machine.Params, l *lapi.LAPI, size int, bar *sim.Barrier, design Design) *LAPIProvider {
	if l.Variant() != design.LAPIVariant() {
		panic(fmt.Sprintf("mpci: design %v needs LAPI variant %v, got %v", design, design.LAPIVariant(), l.Variant()))
	}
	pr := &LAPIProvider{
		eng:        eng,
		par:        par,
		l:          l,
		rank:       l.Node(),
		size:       size,
		bar:        bar,
		design:     design,
		envSeqOut:  make([]uint32, size),
		envSeqIn:   make([]uint32, size),
		envOOO:     make([]map[uint32]*earlyMsg, size),
		inflight:   make([][]*inflightEager, size),
		bsendSlots: make(map[uint32]int),
		nextSlot:   1,
	}
	pr.core.eaCap = par.EarlyArrivalBytes
	pr.tr = l.HAL().Trace()
	for i := range pr.envOOO {
		pr.envOOO[i] = make(map[uint32]*earlyMsg)
	}
	pr.hid = l.RegisterHeaderHandler(pr.headerHandler)
	if design == DesignCounters {
		pr.pairCntr = make([]*lapi.Counter, size)
		for i := range pr.pairCntr {
			c := l.NewCounter()
			pr.pairCntr[i] = c
			l.RegisterCounter(c)
		}
	}
	// LAPI's interrupt handler has no hysteresis (Section 6.1).
	l.HAL().SetInterruptDwell(0)
	eng.Spawn(fmt.Sprintf("mpci-lapi-def-%d", pr.rank), pr.deferredLoop)
	return pr
}

// Rank returns this task's rank.
func (pr *LAPIProvider) Rank() int { return pr.rank }

// Size returns the job size.
func (pr *LAPIProvider) Size() int { return pr.size }

// Design returns the MPI-LAPI design in use.
func (pr *LAPIProvider) Design() Design { return pr.design }

// Stats returns a copy of the cumulative counters.
func (pr *LAPIProvider) Stats() ProviderStats { return pr.stats }

// Trace implements Provider.
func (pr *LAPIProvider) Trace() *tracelog.Log { return pr.tr }

// Capabilities implements Provider.
func (pr *LAPIProvider) Capabilities() Capabilities {
	return Capabilities{
		EnvelopeResequencing: true,
		CounterCompletions:   pr.design == DesignCounters,
		InlineCompletions:    pr.design == DesignEnhanced,
		ZeroCopyRendezvous:   pr.zc != nil,
	}
}

// Barrier synchronizes all tasks in the job.
func (pr *LAPIProvider) Barrier(p *sim.Proc) { pr.bar.Await(p) }

// WaitUntil drives the dispatcher until cond holds, reaping counter-design
// completions as they appear.
func (pr *LAPIProvider) WaitUntil(p *sim.Proc, cond func() bool) {
	pr.l.HAL().ProgressWait(p, func() bool {
		pr.reapCounters(p)
		return cond()
	})
}

// reapCounters applies the Counters design (Section 5.2): each increment of
// the per-source counter means the oldest in-progress eager message from
// that source has fully arrived.
func (pr *LAPIProvider) reapCounters(p *sim.Proc) {
	if pr.design != DesignCounters {
		return
	}
	for src, c := range pr.pairCntr {
		for c.Value() > 0 {
			if len(pr.inflight[src]) == 0 {
				panic("mpci: counter bump with no in-progress eager message")
			}
			c.Set(c.Value() - 1)
			em := pr.inflight[src][0]
			pr.inflight[src] = pr.inflight[src][1:]
			pr.l.HAL().ChargeCPU(p, pr.par.InlineHandlerOverhead) // counter poll + bookkeeping
			pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KCmplInline, pr.rank, src, em.traceID, em.env.Size, int64(pr.par.InlineHandlerOverhead))
			pr.eagerArrivedAll(p, em)
		}
	}
}

func (pr *LAPIProvider) buildUhdr(kind byte, mode Mode, blocking bool, seq uint32, ctx, tag, size int, reqID, auxID uint32) []byte {
	n := pr.par.HeaderBytesLAPI - 31 // flow framing (10) + LAPI msg header (21)
	if n < uhdrMin {
		n = uhdrMin
	}
	// Amsend consumes the user header synchronously (LAPI snapshots it into
	// its own message state), so callers return it to the pool afterwards.
	b := pr.eng.Pool().Get(n)
	b[0] = kind
	b[1] = byte(mode)
	if blocking {
		b[2] = 1
	}
	binary.BigEndian.PutUint32(b[4:8], seq)
	binary.BigEndian.PutUint32(b[8:12], uint32(ctx))
	binary.BigEndian.PutUint32(b[12:16], uint32(tag))
	binary.BigEndian.PutUint32(b[16:20], uint32(size))
	binary.BigEndian.PutUint32(b[20:24], reqID)
	binary.BigEndian.PutUint32(b[24:28], auxID)
	return b
}

func parseUhdr(src int, b []byte) (kind byte, env Envelope, blocking bool, seq, reqID, auxID uint32) {
	kind = b[0]
	env = Envelope{
		Src:  src,
		Mode: Mode(b[1]),
		Ctx:  int(int32(binary.BigEndian.Uint32(b[8:12]))),
		Tag:  int(int32(binary.BigEndian.Uint32(b[12:16]))),
		Size: int(binary.BigEndian.Uint32(b[16:20])),
	}
	blocking = b[2] == 1
	seq = binary.BigEndian.Uint32(b[4:8])
	reqID = binary.BigEndian.Uint32(b[20:24])
	auxID = binary.BigEndian.Uint32(b[24:28])
	return
}

// uhdrSetRkey stamps a zero-copy request-to-send's registered-region
// handle into the header's rkey field (zero for every other kind).
func uhdrSetRkey(b []byte, rkey uint32) { binary.BigEndian.PutUint32(b[28:32], rkey) }

func uhdrRkey(b []byte) uint32 { return binary.BigEndian.Uint32(b[28:32]) }

// countersEligible reports whether the Counters design's no-completion-
// handler trick applies to an eager message of the given size: it requires
// counter bumps to occur in envelope order, which holds exactly when the
// message fits one packet (the paper's 78-byte eager limit guarantees
// this). Larger eager messages fall back to the completion-handler path.
func (pr *LAPIProvider) countersEligible(size int) bool {
	if pr.design != DesignCounters {
		return false
	}
	maxEagerPkt := pr.par.PacketPayload - 31 - (pr.par.HeaderBytesLAPI - 31)
	return size <= maxEagerPkt
}

// useEager applies the Table 2 mode-to-protocol translation.
func (pr *LAPIProvider) useEager(mode Mode, size int) bool {
	switch mode {
	case ModeReady:
		return true
	case ModeSync:
		return false
	default:
		return size <= pr.par.EagerLimit
	}
}

// Isend implements Provider. blocking selects the Figure 6 (blocking) or
// Figure 7 (nonblocking, send-from-completion-handler) rendezvous shape.
func (pr *LAPIProvider) Isend(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode) *SendReq {
	return pr.isend(p, dst, buf, tag, ctx, mode, false)
}

// IsendBlocking is Isend for a blocking MPI send: for rendezvous, the
// calling process itself waits for the acknowledgement and transmits the
// data (Figure 6).
func (pr *LAPIProvider) IsendBlocking(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode) *SendReq {
	return pr.isend(p, dst, buf, tag, ctx, mode, true)
}

func (pr *LAPIProvider) isend(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode, blocking bool) *SendReq {
	req := &SendReq{
		Env:      Envelope{Src: pr.rank, Tag: tag, Ctx: ctx, Size: len(buf), Mode: mode},
		Dst:      dst,
		blocking: blocking,
	}
	pr.l.HAL().ChargeCPU(p, pr.par.SendCallOverhead)
	var slot uint32
	if mode == ModeBuffered {
		buf, slot = pr.stageBsend(p, buf)
		req.bsendSlot = slot
	}
	if dst == pr.rank {
		pr.selfSend(p, req, buf)
		if mode == ModeBuffered {
			// selfSend copied or snapshotted the staged bytes.
			pr.eng.Pool().Put(buf)
		}
		return req
	}
	if pr.useEager(mode, len(buf)) {
		pr.stats.EagerSends++
		seq := pr.envSeqOut[dst]
		pr.envSeqOut[dst]++
		pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KSendEager, pr.rank, dst, tracelog.EnvID(pr.rank, dst, seq), len(buf), int64(tag))
		uhdr := pr.buildUhdr(uEager, mode, blocking, seq, ctx, tag, len(buf), 0, slot)
		tgtCntr := -1
		if pr.countersEligible(len(buf)) {
			tgtCntr = pr.rank // counter ids are ranks, exchanged at init
		}
		pr.l.Amsend(p, dst, pr.hid, uhdr, buf, tgtCntr, nil, -1)
		pr.eng.Pool().Put(uhdr)
		pr.stats.BytesSent += uint64(len(buf))
		req.done = true
		if mode == ModeBuffered {
			req.done = true // staging copy owns the data; slot freed on BsendDone
			// Amsend copied the staged bytes into flow packets, so the
			// pooled staging copy itself is already dead.
			pr.eng.Pool().Put(buf)
		}
		return req
	}
	// Rendezvous (Figure 4): request-to-send carrying no data.
	pr.stats.RdvSends++
	if pr.zc != nil {
		pr.zcIsendRdv(p, req, buf, slot, blocking)
		return req
	}
	id := uint32(len(pr.sendReqs))
	pr.sendReqs = append(pr.sendReqs, req)
	req.rdvBuf = buf
	seq := pr.envSeqOut[dst]
	pr.envSeqOut[dst]++
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KSendRdv, pr.rank, dst, tracelog.EnvID(pr.rank, dst, seq), len(buf), int64(tag))
	uhdr := pr.buildUhdr(uRTS, mode, blocking, seq, ctx, tag, len(buf), id, slot)
	pr.l.Amsend(p, dst, pr.hid, uhdr, nil, -1, nil, -1)
	pr.eng.Pool().Put(uhdr)
	if blocking {
		// Figure 6: wait for the acknowledgement, then send the data from
		// this process.
		pr.WaitUntil(p, func() bool { return req.acked })
		pr.sendRdvData(p, req)
	}
	return req
}

// sendRdvData transmits the body after the request-to-send was acknowledged.
func (pr *LAPIProvider) sendRdvData(p *sim.Proc, req *SendReq) {
	buf := req.rdvBuf
	req.rdvBuf = nil
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KRdvData, pr.rank, req.Dst, tracelog.RdvID(pr.rank, req.Dst, req.recvID), len(buf), int64(req.recvID))
	uhdr := pr.buildUhdr(uRdvData, req.Env.Mode, false, 0, req.Env.Ctx, req.Env.Tag, len(buf), req.recvID, req.bsendSlot)
	pr.l.Amsend(p, req.Dst, pr.hid, uhdr, buf, -1, nil, -1)
	pr.eng.Pool().Put(uhdr)
	if req.bsendSlot != 0 {
		// Buffered rendezvous: buf is the pooled staging copy, fully
		// consumed by Amsend.
		//simlint:allow bufpoolown ownership transfer: req.rdvBuf holds the pooled bsend staging copy this provider made, dead once Amsend snapshots it
		pr.eng.Pool().Put(buf)
	}
	pr.stats.BytesSent += uint64(len(buf))
	req.done = true
	pr.l.HAL().KickProgress()
}

// Irecv implements Provider.
func (pr *LAPIProvider) Irecv(p *sim.Proc, src, tag, ctx int, buf []byte) *RecvReq {
	req := &RecvReq{
		Match: Envelope{Src: src, Tag: tag, Ctx: ctx, Size: len(buf)},
		Buf:   buf,
	}
	pr.l.HAL().ChargeCPU(p, pr.par.MatchCost)
	em := pr.core.postRecv(req)
	if em == nil {
		return req
	}
	pr.claimEarly(p, req, em)
	return req
}

// claimEarly resolves a posted receive against a matched early arrival.
func (pr *LAPIProvider) claimEarly(p *sim.Proc, req *RecvReq, em *earlyMsg) {
	if em.isRTS {
		pr.core.releaseEarly(em)
		if em.rtsZC {
			// Zero-copy rendezvous: pull the body straight into req.Buf.
			pr.zcStartPull(p, req, em)
			return
		}
		// Figure 9: acknowledge the pending request-to-send.
		id := uint32(len(pr.recvReqs))
		pr.recvReqs = append(pr.recvReqs, req)
		req.pendingEnv = em.env
		pr.sendRTSAck(p, em.env.Src, em.rtsSendReq, id, em.rtsBlocking)
		return
	}
	em.claimedBy = req
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KEarlyClaim, pr.rank, em.env.Src, em.traceID, em.env.Size, int64(em.env.Tag))
	if em.complete {
		pr.finishEarly(p, req, em)
		return
	}
	em.onComplete = func(p *sim.Proc) { pr.finishEarly(p, req, em) }
}

// finishEarly copies a completed early arrival into the user buffer and
// completes the receive.
func (pr *LAPIProvider) finishEarly(p *sim.Proc, req *RecvReq, em *earlyMsg) {
	pr.l.HAL().ChargeCPU(p, pr.par.CopyCost(em.env.Size))
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KCopy, pr.rank, em.env.Src, em.traceID, em.env.Size, int64(pr.par.CopyCost(em.env.Size)))
	copy(req.Buf, em.data)
	// The pooled early-arrival buffer is dead once drained into the user
	// buffer.
	//simlint:allow bufpoolown ownership transfer: em.data is the pooled early-arrival copy this provider took, dead once drained
	pr.eng.Pool().Put(em.data)
	em.data = nil
	pr.core.releaseEarly(em)
	if em.onClaim != nil {
		em.onClaim(p)
	}
	pr.finishRecv(p, req, em.env, em.bsendSlot, em.traceID)
}

// finishRecv completes a receive and, for a buffered-mode message, notifies
// the sender so it can free its staging space (Figure 8).
func (pr *LAPIProvider) finishRecv(p *sim.Proc, req *RecvReq, env Envelope, slot uint32, mid uint64) {
	pr.stats.BytesRecved += uint64(env.Size)
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KRecvDone, pr.rank, env.Src, mid, env.Size, int64(env.Tag))
	req.complete(env.Src, env.Tag, env.Size)
	if slot != 0 {
		pr.deferSend(func(p *sim.Proc) {
			uhdr := pr.buildUhdr(uBsendDone, 0, false, 0, 0, 0, 0, 0, slot)
			pr.l.Amsend(p, env.Src, pr.hid, uhdr, nil, -1, nil, -1)
			pr.eng.Pool().Put(uhdr)
		})
	}
	pr.l.HAL().KickProgress()
}

// sendRTSAck acknowledges a request-to-send. Must not run in header-handler
// context.
func (pr *LAPIProvider) sendRTSAck(p *sim.Proc, dst int, sendReq, recvID uint32, blocking bool) {
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KRTSAck, pr.rank, dst, tracelog.RdvID(dst, pr.rank, recvID), 0, int64(sendReq))
	uhdr := pr.buildUhdr(uRTSAck, 0, blocking, 0, 0, 0, 0, sendReq, recvID)
	pr.l.Amsend(p, dst, pr.hid, uhdr, nil, -1, nil, -1)
	pr.eng.Pool().Put(uhdr)
}

// Iprobe implements Provider.
func (pr *LAPIProvider) Iprobe(p *sim.Proc, src, tag, ctx int) (Envelope, bool) {
	pr.l.HAL().Poll(p)
	pr.reapCounters(p)
	pr.l.HAL().ChargeCPU(p, pr.par.MatchCost)
	return pr.core.probe(src, tag, ctx)
}

// AttachBuffer implements Provider (MPI_Buffer_attach).
func (pr *LAPIProvider) AttachBuffer(buf []byte) {
	if pr.bsendBuf != nil {
		panic("mpci: buffer already attached")
	}
	pr.bsendBuf = buf
	pr.bsendUsed = 0
}

// DetachBuffer implements Provider (MPI_Buffer_detach).
func (pr *LAPIProvider) DetachBuffer(p *sim.Proc) []byte {
	pr.WaitUntil(p, func() bool { return pr.bsendUsed == 0 })
	b := pr.bsendBuf
	pr.bsendBuf = nil
	return b
}

// stageBsend copies a buffered-mode message into the attached buffer and
// assigns a slot to be freed on the receiver's notification.
func (pr *LAPIProvider) stageBsend(p *sim.Proc, buf []byte) ([]byte, uint32) {
	if pr.bsendBuf == nil {
		panic("mpci: buffered send with no attached buffer")
	}
	if pr.bsendUsed+len(buf) > len(pr.bsendBuf) {
		panic(fmt.Sprintf("mpci: attached buffer exhausted (%d + %d > %d)", pr.bsendUsed, len(buf), len(pr.bsendBuf)))
	}
	pr.bsendUsed += len(buf)
	slot := pr.nextSlot
	pr.nextSlot++
	pr.bsendSlots[slot] = len(buf)
	pr.l.HAL().ChargeCPU(p, pr.par.CopyCost(len(buf)))
	return pr.eng.Pool().Snapshot(buf), slot
}

func (pr *LAPIProvider) freeBsendSlot(slot uint32) {
	n, ok := pr.bsendSlots[slot]
	if !ok {
		panic("mpci: BsendDone for unknown slot")
	}
	delete(pr.bsendSlots, slot)
	pr.bsendUsed -= n
	pr.l.HAL().KickProgress()
}

// selfSend handles dst == rank without the network.
func (pr *LAPIProvider) selfSend(p *sim.Proc, req *SendReq, buf []byte) {
	pr.stats.SelfSends++
	env := req.Env
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KSelfSend, pr.rank, pr.rank, 0, len(buf), int64(env.Tag))
	if req.bsendSlot != 0 {
		// The staging copy is ours; free it as soon as the data is placed.
		defer pr.freeBsendSlot(req.bsendSlot)
	}
	if rreq := pr.core.matchArrival(env); rreq != nil {
		pr.l.HAL().ChargeCPU(p, pr.par.MatchCost+pr.par.CopyCost(len(buf)))
		copy(rreq.Buf, buf)
		rreq.complete(env.Src, env.Tag, len(buf))
		req.done = true
		pr.l.HAL().KickProgress()
		return
	}
	if env.Mode == ModeReady {
		panic("mpci: ready-mode send with no matching receive posted (fatal per MPI)")
	}
	em := &earlyMsg{env: env, complete: true, data: pr.eng.Pool().Snapshot(buf)}
	if env.Mode == ModeSync {
		em.onClaim = func(p *sim.Proc) {
			req.done = true
			pr.l.HAL().KickProgress()
		}
	} else {
		req.done = true
	}
	pr.l.HAL().ChargeCPU(p, pr.par.CopyCost(len(buf)))
	pr.core.addEarly(em)
	pr.l.HAL().KickProgress()
}

// deferSend queues fn to run on the deferred-work process (used where the
// current context may not call LAPI, e.g. header handlers).
func (pr *LAPIProvider) deferSend(fn func(p *sim.Proc)) {
	pr.deferred = append(pr.deferred, fn)
	pr.defCond.Broadcast()
}

func (pr *LAPIProvider) deferredLoop(p *sim.Proc) {
	for {
		for len(pr.deferred) == 0 {
			pr.defCond.Wait(p)
		}
		fn := pr.deferred[0]
		pr.deferred = pr.deferred[1:]
		fn(p)
		pr.l.HAL().KickProgress()
	}
}
