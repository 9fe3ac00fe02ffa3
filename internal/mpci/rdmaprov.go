// The rdma provider: the LAPI MPCI with a zero-copy rendezvous over the
// HAL's RDMA engines (the MPICH2/InfiniBand-style answer to the paper's
// Section 6 copy bill).
//
// Eager messages are unchanged — below the eager limit the one staging
// copy is cheaper than pinning pages. Above it the protocol becomes:
//
//	sender   registers the user buffer, sends uRTSZ carrying the rkey
//	receiver matches, registers the posted buffer, and issues an RDMA
//	         read (LAPI-Get-style pull) straight into it — no CTS round
//	         trip, no staging copy, no data packet touches the FIFO
//	receiver sends uRdvDoneZ when the last chunk lands; both sides
//	         release their regions and the send request completes
//
// Control traffic (uRTSZ, uRdvDoneZ) still flows through LAPI's reliable
// Amsend path and the envelope resequencer, so MPI ordering and matching
// are untouched; only the body bytes change transport. Chaos plans apply
// to the body: chunks are CRC-checked at the bypass handler and re-pulled
// into the same registered region by the HAL's retry timer.
package mpci

import (
	"splapi/internal/lapi"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// NewRdmaLAPI builds the rdma provider for one task: the Enhanced-design
// LAPI MPCI with the zero-copy rendezvous enabled. The LAPI endpoint must
// use the Inline variant; the machine generation must support RDMA
// (Params.RdmaSupported — HAL.Rdma panics otherwise).
func NewRdmaLAPI(eng *sim.Engine, par *machine.Params, l *lapi.LAPI, size int, bar *sim.Barrier) *LAPIProvider {
	pr := NewLAPI(eng, par, l, size, bar, DesignEnhanced)
	pr.zc = l.HAL().Rdma()
	return pr
}

// zcIsendRdv starts a zero-copy rendezvous send: register the message
// buffer, then request-to-send with the region handle. The body never
// leaves this buffer — the receiver pulls it. Runs in the sending process.
func (pr *LAPIProvider) zcIsendRdv(p *sim.Proc, req *SendReq, buf []byte, slot uint32, blocking bool) {
	pr.stats.ZeroCopySends++
	id := uint32(len(pr.sendReqs))
	pr.sendReqs = append(pr.sendReqs, req)
	// The buffer stays pinned (and, for buffered mode, the staging copy
	// stays alive) until the receiver's pull completes.
	req.rdvBuf = buf
	rkey, ready := pr.zc.RegisterRegion(buf)
	req.rdmaKey = rkey
	// Pinning and translation must finish before the request-to-send goes
	// out: the pull may arrive as soon as the receiver sees it.
	if wait := ready - p.Now(); wait > 0 {
		p.Sleep(wait)
	}
	dst := req.Dst
	seq := pr.envSeqOut[dst]
	pr.envSeqOut[dst]++
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KSendRdv, pr.rank, dst, tracelog.EnvID(pr.rank, dst, seq), len(buf), int64(req.Env.Tag))
	uhdr := pr.buildUhdr(uRTSZ, req.Env.Mode, blocking, seq, req.Env.Ctx, req.Env.Tag, len(buf), id, slot)
	uhdrSetRkey(uhdr, rkey)
	pr.l.Amsend(p, dst, pr.hid, uhdr, nil, -1, nil, -1)
	pr.eng.Pool().Put(uhdr)
	if blocking {
		// The buffer is reusable only once the receiver has pulled every
		// byte (there is no sender-side data transmission to wait on).
		pr.WaitUntil(p, func() bool { return req.done })
	}
}

// zcStartPull resolves a matched zero-copy request-to-send: register the
// posted receive buffer and pull the body by RDMA read directly into it.
// Safe in header-handler context — registration and read initiation never
// block (the registration charge is the returned ready time).
func (pr *LAPIProvider) zcStartPull(p *sim.Proc, req *RecvReq, em *earlyMsg) {
	pr.stats.ZeroCopyRecvs++
	id := uint32(len(pr.recvReqs))
	pr.recvReqs = append(pr.recvReqs, req)
	req.pendingEnv = em.env
	env := em.env
	n := env.Size
	mid := em.traceID
	slot := em.bsendSlot
	sendReq := em.rtsSendReq
	lkey, ready := pr.zc.RegisterRegion(req.Buf[:n])
	// The pull request plays the clear-to-send role; trace it as the CTS
	// event so rendezvous control traffic counts uniformly across
	// providers.
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KRTSAck, pr.rank, env.Src, tracelog.RdvID(env.Src, pr.rank, id), n, int64(sendReq))
	pr.zc.RdmaRead(env.Src, em.rtsRkey, lkey, n, ready, func() {
		// Engine context: completing the receive charges CPU and sends the
		// done notification, so route through the deferred-work process.
		pr.deferSend(func(cp *sim.Proc) {
			pr.zc.Deregister(lkey)
			uhdr := pr.buildUhdr(uRdvDoneZ, 0, false, 0, 0, 0, 0, sendReq, 0)
			pr.l.Amsend(cp, env.Src, pr.hid, uhdr, nil, -1, nil, -1)
			pr.eng.Pool().Put(uhdr)
			pr.finishRecv(cp, req, env, slot, mid)
		})
	})
}

// zcSendDone completes a zero-copy send when the receiver's pull finished
// (uRdvDoneZ). Runs in header-handler context: everything here is
// non-blocking.
func (pr *LAPIProvider) zcSendDone(reqID uint32) {
	req := pr.sendReqs[reqID]
	pr.zc.Deregister(req.rdmaKey)
	if req.bsendSlot != 0 && req.rdvBuf != nil {
		// Buffered rendezvous: the pooled staging copy the receiver pulled
		// from is now dead (the slot itself frees on uBsendDone).
		pr.eng.Pool().Put(req.rdvBuf)
	}
	req.rdvBuf = nil
	pr.stats.BytesSent += uint64(req.Env.Size)
	req.acked = true
	req.done = true
	pr.l.HAL().KickProgress()
}
