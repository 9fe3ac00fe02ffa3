package main

import (
	"runtime/metrics"
	"strings"

	"splapi/internal/chaos"
	"splapi/internal/sweep"
	"splapi/internal/trace"
	"splapi/internal/tracelog"
)

// counts accumulates per-layer numbers under their metric names. Keys
// starting with "_" are raw parts of a ratio; finish turns them into the
// ratio and drops them.
type counts map[string]float64

// shareLayers are the layers whose share of CPU-profile samples is
// reported as <layer>.host_share; samples in any other repo package are
// summed into host.other_share.
var shareLayers = []string{
	"sim", "fabric", "adapter", "hal", "pipes", "lapi", "mpci", "mpi",
	"nas", "bench", "cluster", "sweep", "campaign",
}

// perLayerNames is every metric the traced run reports, in report order.
// BENCHMARK.json lists the same names.
var perLayerNames = func() []string {
	names := []string{
		"sim.sched_switches_per_cell", "sim.sched_wait_ms", "sim.ns_per_park",
		"sim.ns_per_event", "sim.host_ns_per_packet",
		"pool.gets", "pool.hit_ratio",
		"host.allocs_per_cell", "host.alloc_mb_per_cell", "host.gc_cycles",
		"host.unattributed_share", "host.other_share",
		"fabric.packets", "fabric.bytes_wire", "fabric.reordered", "fabric.dropped",
		"adapter.interrupts", "adapter.fifo_drops", "adapter.bypassed",
		"hal.packets_sent", "hal.polls", "hal.corrupt_drops",
		"rdma.registrations", "rdma.reg_cache_hit_ratio", "rdma.retries",
		"pipes.data_packets", "pipes.ack_piggyback_ratio", "pipes.retransmits",
		"pipes.timeouts", "pipes.window_stalls",
		"lapi.msgs", "lapi.retransmits", "lapi.timeouts", "lapi.cmpl_threaded",
		"lapi.cmpl_inline", "lapi.window_stalls",
		"mpci.eager_sends", "mpci.rdv_sends", "mpci.unexpected", "mpci.copy_bytes",
		"mpci.zero_copy_sends", "mpci.env_ooo",
		"mpi.calls",
		"cluster.new_ms",
		"sweep.pool_idle_s", "sweep.aggregate_ms",
		"campaign.cache_hit_ratio", "campaign.coalesced",
		"campaign.queue_wait_ms_p50", "campaign.run_ms_p50",
		"campaign.hit_ms_p50", "campaign.hit_ms_p90", "campaign.requests_per_s",
		"campaign.stream_truncated",
		"vt.copy_us", "vt.dispatch_us", "vt.ctx_switch_us", "vt.wire_us", "vt.dma_us",
		"trace.overhead_pct", "trace.dropped_events", "trace.jobs",
	}
	for _, l := range shareLayers {
		names = append(names, l+".host_share")
	}
	return names
}()

// foldReport adds one cell's trace.Report counters.
func (c counts) foldReport(r *trace.Report) {
	if r == nil {
		return
	}
	c["fabric.packets"] += float64(r.Fabric.Injected)
	c["fabric.bytes_wire"] += float64(r.Fabric.BytesWire)
	c["fabric.reordered"] += float64(r.Fabric.Reordered)
	c["fabric.dropped"] += float64(r.Fabric.Dropped)
	c["pool.gets"] += float64(r.Pool.Gets)
	c["_pool.hits"] += float64(r.Pool.Hits)
	for _, n := range r.Per {
		c["adapter.interrupts"] += float64(n.Adapter.Interrupts)
		c["adapter.fifo_drops"] += float64(n.Adapter.FIFODrops)
		c["adapter.bypassed"] += float64(n.Adapter.Bypassed)
		c["hal.packets_sent"] += float64(n.HAL.PacketsSent)
		c["hal.polls"] += float64(n.HAL.Polls)
		c["hal.corrupt_drops"] += float64(n.HAL.CorruptDrops)
		if s := n.Rdma; s != nil {
			c["rdma.registrations"] += float64(s.Registrations)
			c["_rdma.cache_hits"] += float64(s.CacheHits)
			c["rdma.retries"] += float64(s.Retries)
		}
		if s := n.Pipes; s != nil {
			c["pipes.data_packets"] += float64(s.DataPackets)
			c["_pipes.acks_piggyback"] += float64(s.AcksPiggyback)
			c["_pipes.acks_sent"] += float64(s.AcksSent)
			c["pipes.retransmits"] += float64(s.Retransmits)
			c["pipes.timeouts"] += float64(s.Timeouts)
			c["pipes.window_stalls"] += float64(s.WindowStalls)
		}
		if s := n.LAPI; s != nil {
			c["lapi.msgs"] += float64(s.MsgsSent)
			c["lapi.retransmits"] += float64(s.Retransmits)
			c["lapi.timeouts"] += float64(s.Timeouts)
			c["lapi.cmpl_threaded"] += float64(s.CmplThreaded)
			c["lapi.cmpl_inline"] += float64(s.CmplInline)
			c["lapi.window_stalls"] += float64(s.WindowStalls)
		}
		if s := n.Provider; s != nil {
			c["mpci.eager_sends"] += float64(s.EagerSends)
			c["mpci.rdv_sends"] += float64(s.RdvSends)
			c["mpci.unexpected"] += float64(s.Unexpected)
			c["mpci.copy_bytes"] += float64(s.CopiesCharged)
			c["mpci.zero_copy_sends"] += float64(s.ZeroCopySends)
			c["mpci.env_ooo"] += float64(s.EnvOOO)
		}
	}
}

// foldEvents adds one run's event log: MPI calls and the virtual-time
// breakdown always; with haveReport false (a NAS kernel, whose entry point
// exposes no trace.Report) also the layer counts the events carry.
func (c counts) foldEvents(l *tracelog.Log, haveReport bool) {
	evs := l.Events()
	c["trace.dropped_events"] += float64(l.Dropped())
	// Whole nanoseconds add exactly in any order; finish converts to us.
	for cat, ns := range tracelog.Breakdown(evs) {
		c[vtKeys[cat]] += float64(ns)
	}
	byKind := map[tracelog.Kind]float64{}
	for i := range evs {
		byKind[evs[i].Kind]++
	}
	c["mpi.calls"] += byKind[tracelog.KMPIEnter]
	if haveReport {
		return
	}
	for name, k := range eventCounts {
		c[name] += byKind[k]
	}
}

// vtKeys are the raw nanosecond sums of the breakdown categories.
var vtKeys = [tracelog.NumCategories]string{
	tracelog.CatCopy:      "_vt.copy",
	tracelog.CatDispatch:  "_vt.dispatch",
	tracelog.CatCtxSwitch: "_vt.ctx_switch",
	tracelog.CatWire:      "_vt.wire",
	tracelog.CatDMA:       "_vt.dma",
}

// eventCounts maps metrics to the event kind that counts them, for runs
// without a trace.Report. Metrics no event carries (bytes on the wire,
// polls, pool traffic, copy bytes) stay 0 on such runs.
var eventCounts = map[string]tracelog.Kind{
	"fabric.packets":      tracelog.KInject,
	"fabric.dropped":      tracelog.KDrop,
	"adapter.interrupts":  tracelog.KIntr,
	"adapter.fifo_drops":  tracelog.KFIFODrop,
	"hal.packets_sent":    tracelog.KHALSend,
	"hal.corrupt_drops":   tracelog.KCrcDrop,
	"rdma.registrations":  tracelog.KRdmaReg,
	"_rdma.cache_hits":    tracelog.KRdmaRegHit,
	"rdma.retries":        tracelog.KRdmaRetry,
	"pipes.data_packets":  tracelog.KPipeData,
	"pipes.retransmits":   tracelog.KPipeRtx,
	"pipes.window_stalls": tracelog.KPipeStall,
	"lapi.msgs":           tracelog.KAmsend,
	"lapi.retransmits":    tracelog.KFlowRtx,
	"lapi.timeouts":       tracelog.KFlowTimeout,
	"lapi.cmpl_threaded":  tracelog.KCmplQueued,
	"lapi.cmpl_inline":    tracelog.KCmplInline,
	"lapi.window_stalls":  tracelog.KFlowStall,
	"mpci.eager_sends":    tracelog.KSendEager,
	"mpci.rdv_sends":      tracelog.KSendRdv,
	"mpci.unexpected":     tracelog.KUnexpected,
}

// nativeSeries reports whether a served result's series ran on the
// native stack, whose reliability layer is Pipes; every other stack
// retransmits in LAPI. Served artifacts carry one combined retransmit
// count per run, and only one of the two layers exists in any run.
func nativeSeries(name string) bool {
	return strings.HasPrefix(name, "Native") || name == "ring-native"
}

// foldServed adds the counters a served sweep artifact records per point.
func (c counts) foldServed(r *sweep.Result) {
	for _, p := range r.Points {
		t := p.Trace
		c["fabric.packets"] += float64(t.Injected)
		c["fabric.bytes_wire"] += float64(t.BytesWire)
		c["fabric.reordered"] += float64(t.Reordered)
		c["fabric.dropped"] += float64(t.Dropped)
		c["hal.packets_sent"] += float64(t.PacketsSent)
		c["hal.corrupt_drops"] += float64(t.CorruptDrops)
		c["adapter.fifo_drops"] += float64(t.FIFODrops)
		c.foldReliability(nativeSeries(p.Series), t.Retransmits, t.Timeouts)
	}
}

// foldChaos adds the counters a served chaos artifact records per run.
func (c counts) foldChaos(r *chaos.Result) {
	for _, pl := range r.Plans {
		for _, run := range pl.Runs {
			t := run.Counters
			c["fabric.packets"] += float64(t.Injected)
			c["fabric.dropped"] += float64(t.Dropped)
			c["hal.corrupt_drops"] += float64(t.CorruptDrops)
			c["adapter.fifo_drops"] += float64(t.FIFODrops)
			c.foldReliability(nativeSeries(run.Workload), t.Retransmits, t.Timeouts)
		}
	}
}

func (c counts) foldReliability(native bool, rtx, timeouts uint64) {
	layer := "lapi."
	if native {
		layer = "pipes."
	}
	c[layer+"retransmits"] += float64(rtx)
	c[layer+"timeouts"] += float64(timeouts)
}

// finish computes the ratios from their raw parts and fills every
// per-layer name the run had no source for with 0.
func (c counts) finish() {
	c["pool.hit_ratio"] = ratio(c["_pool.hits"], c["pool.gets"])
	c["rdma.reg_cache_hit_ratio"] = ratio(c["_rdma.cache_hits"], c["rdma.registrations"]+c["_rdma.cache_hits"])
	c["pipes.ack_piggyback_ratio"] = ratio(c["_pipes.acks_piggyback"], c["_pipes.acks_piggyback"]+c["_pipes.acks_sent"])
	for _, k := range vtKeys {
		c[k[1:]+"_us"] = c[k] / 1e3
	}
	for k := range c {
		if k[0] == '_' {
			delete(c, k)
		}
	}
	for _, k := range perLayerNames {
		if _, ok := c[k]; !ok {
			c[k] = 0
		}
	}
}

// shares folds CPU-profile layer shares into <layer>.host_share.
func (c counts) shares(s map[string]float64) {
	known := map[string]bool{unattributed: true}
	for _, l := range shareLayers {
		c[l+".host_share"] = s[l]
		known[l] = true
	}
	c["host.unattributed_share"] = s[unattributed]
	for l, v := range s {
		if !known[l] {
			c["host.other_share"] += v
		}
	}
}

// Runtime metrics read around the measured batches.
const (
	mSched      = "/sched/latencies:seconds"
	mAllocs     = "/gc/heap/allocs:objects"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
)

// rtSnap is one reading of the runtime metrics the benchmark uses.
type rtSnap struct {
	schedCount uint64  // goroutines that became runnable and then ran
	schedWaitS float64 // their summed runnable wait, from bucket midpoints
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: mSched}, {Name: mAllocs}, {Name: mAllocBytes}, {Name: mGCCycles}}
	metrics.Read(s)
	var r rtSnap
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		for i, n := range h.Counts {
			r.schedCount += n
			r.schedWaitS += float64(n) * bucketMid(h.Buckets[i], h.Buckets[i+1])
		}
	}
	r.allocs = s[1].Value.Uint64()
	r.allocBytes = s[2].Value.Uint64()
	r.gcCycles = s[3].Value.Uint64()
	return r
}

// bucketMid is a histogram bucket's representative value; the open-ended
// edge buckets take their finite bound.
func bucketMid(lo, hi float64) float64 {
	switch {
	case lo < -1e300:
		return hi
	case hi > 1e300:
		return lo
	}
	return (lo + hi) / 2
}

// foldRuntime adds the runtime-metric deltas over batches batches that
// ran jobs simulation runs: per-run switch and allocation counts, and
// per-batch runnable wait and GC cycles.
func (c counts) foldRuntime(before, after rtSnap, jobs, batches int) {
	n, b := float64(jobs), float64(batches)
	c["sim.sched_switches_per_cell"] = ratio(float64(after.schedCount-before.schedCount), n)
	c["sim.sched_wait_ms"] = ratio((after.schedWaitS-before.schedWaitS)*1e3, b)
	c["host.allocs_per_cell"] = ratio(float64(after.allocs-before.allocs), n)
	c["host.alloc_mb_per_cell"] = ratio(float64(after.allocBytes-before.allocBytes)/1e6, n)
	c["host.gc_cycles"] = ratio(float64(after.gcCycles-before.gcCycles), b)
}
