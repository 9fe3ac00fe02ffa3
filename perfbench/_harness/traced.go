package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"splapi/internal/tracelog"
)

// tracer is what a batch records into during the traced run. A nil
// *tracer is the timed run: every method is a no-op.
type tracer struct {
	rec  *Recorder // spans; nil records none
	root int       // the span every span of the batch hangs from
	logs bool      // attach a tracelog.Log to every simulation run
	mu   sync.Mutex
	cnt  counts
}

func (t *tracer) rootSpan() int {
	if t == nil {
		return 0
	}
	return t.root
}

func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.rec.Begin(parent, name)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.rec.End(id)
	}
}

func (t *tracer) add(parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.rec.Add(parent, name, start, end)
}

// fold adds to the tracer's counts under its lock.
func (t *tracer) fold(fn func(counts)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	fn(t.cnt)
	t.mu.Unlock()
}

// newLog returns a fresh event log for one traced simulation run, nil
// when the tracer attaches none.
func (t *tracer) newLog() *tracelog.Log {
	if t == nil || !t.logs {
		return nil
	}
	return tracelog.New(tracelog.DefaultCap)
}

// complete returns a log holding every event of a run: l itself, or, when
// l overflowed, a log from rerunning the run (deterministic, so the same
// events) into a log sized to the count l saw. Only the biggest cells
// (megabyte messages) overflow the default 2^18 events.
func complete(l *tracelog.Log, rerun func(*tracelog.Log)) *tracelog.Log {
	if l.Dropped() == 0 {
		return l
	}
	full := tracelog.New(l.Len() + int(l.Dropped()))
	rerun(full)
	return full
}

// phase runs batches with the given tracer until its share of the budget
// is spent (at least min batches). Batch indexes start at first, so each
// phase runs its own inputs, fixed by the seed.
func phase(e *env, wl workload, tr *tracer, first, min int, budget time.Duration) []batchOut {
	var outs []batchOut
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		outs = append(outs, wl.batch(e, first+i, tr))
	}
	return outs
}

// Batch index offsets of the traced run's phases.
const (
	plainFirst    = 0
	profileFirst  = 1 << 20
	tracedFirst   = 2 << 20
	untracedFirst = 3 << 20
)

// serviceMetrics is implemented by workloads that can report counters
// of the process doing the work (spsimd's /metrics).
type serviceMetrics interface {
	serviceCounts() (counts, error)
}

// tracedRun is the separate traced run. It has three phases, each a third
// of the budget: plain batches (the runtime-metric deltas and, on
// service, the hit-latency sample), profiled batches (a CPU profile of
// this process for host shares), and pairs of an untraced and a traced
// batch (spans plus an event log per simulation run; the tracing
// overhead). The deterministic counts come from the first traced batch
// alone, whose inputs depend only on the seed.
func tracedRun(e *env, wl workload, budget time.Duration, name string, prov map[string]any) result {
	third := budget / 3

	before := readRuntime()
	plain := phase(e, wl, nil, plainFirst, 2, third)
	after := readRuntime()
	hs, sampled := wl.(hitSampler)
	var sample batchOut
	if sampled {
		sample = hs.hitSample(e)
	}

	var buf bytes.Buffer
	profErr := pprof.StartCPUProfile(&buf)
	profiled := phase(e, wl, nil, profileFirst, 1, third)
	if profErr == nil {
		pprof.StopCPUProfile()
	}

	// Each traced batch runs right after an untraced one, so the host's
	// speed, which drifts over seconds, is much the same for both halves
	// of a pair.
	rec := newRecorder()
	root := rec.Begin(0, "workload:"+name)
	first := &tracer{rec: rec, logs: true, cnt: counts{}}
	rest := &tracer{rec: rec, logs: true, cnt: counts{}}
	var traced, untraced []batchOut
	var overheads []float64
	for i, t0 := 0, time.Now(); i < 2 || time.Since(t0) < third; i++ {
		tr := rest
		if i == 0 {
			tr = first
		}
		u := wl.batch(e, untracedFirst+i, nil)
		tr.root = rec.Begin(root, "batch")
		t := wl.batch(e, tracedFirst+i, tr)
		rec.End(tr.root)
		untraced, traced = append(untraced, u), append(traced, t)
		overheads = append(overheads, 100*(jobTime(t)-jobTime(u))/jobTime(u))
	}
	rec.End(root)

	var r result
	r.account([]batchOut{sample})
	r.account(plain)
	r.account(profiled)
	r.account(untraced)
	r.account(traced)

	c := first.cnt
	c["trace.jobs"] = float64(len(traced[0].cells))
	var plainJobs int
	for _, o := range plain {
		plainJobs += len(o.cells)
	}
	c.foldRuntime(before, after, plainJobs, len(plain))

	if profErr != nil {
		r.fail("cpu profile: " + profErr.Error())
	} else if samples, err := profileStacks(e.work, buf.Bytes()); err != nil {
		r.fail(err.Error())
	} else {
		shares := hostShares(samples)
		c.shares(shares)
		// Every batch of a workload runs the same jobs, so the counted
		// batch's packets stand for a profiled batch's.
		var cellNs float64
		for _, o := range profiled {
			cellNs += sum(o.cells) * 1e6
		}
		cellNs /= float64(len(profiled))
		c["sim.host_ns_per_packet"] = ratio(shares["sim"]*cellNs, c["fabric.packets"])
	}

	spans := rec.Spans()
	c["sweep.pool_idle_s"], c["sweep.aggregate_ms"] = sweepOverheads(spans, first.root, e.par)
	var waits, runs []float64
	for _, o := range traced {
		waits = append(waits, o.queueWait...)
		runs = append(runs, o.runMs...)
	}
	if len(runs) > 0 {
		c["campaign.queue_wait_ms_p50"] = median(waits)
		c["campaign.run_ms_p50"] = median(runs)
	}
	if sampled {
		// Client-side latencies come from the untraced plain phase and
		// the hit sample that follows it.
		sl := serviceLatencies(plain, sample)
		c["campaign.hit_ms_p50"], c["campaign.hit_ms_p90"] = sl.hitP50, sl.hitP90
		c["campaign.requests_per_s"] = sl.perSec
	}
	for _, o := range append(append(append(append([]batchOut(nil), plain...), profiled...), untraced...), traced...) {
		c["campaign.stream_truncated"] += float64(o.truncated)
	}
	if sm, ok := wl.(serviceMetrics); ok {
		sc, err := sm.serviceCounts()
		if err != nil {
			r.fail(err.Error())
		}
		for k, v := range sc {
			c[k] = v
		}
	}
	c["trace.overhead_pct"] = median(overheads)
	probes(c)
	c.finish()

	stats := spanStats(spans)
	for _, s := range stats {
		fmt.Printf("# span %-22s n=%-6d total %9.3fs self %9.3fs\n", s.Name, s.Count, s.TotalS, s.SelfS)
	}
	file := fmt.Sprintf("trace-%s-%d.json", name, e.seed)
	if err := writeJSON(e.work, file, map[string]any{
		"provenance": prov, "metrics": c, "span_stats": stats, "spans": spans,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Printf("# spans written to %s\n", filepath.Join(e.work, file))
	}

	names := append([]string(nil), perLayerNames...)
	sort.Strings(names)
	for _, n := range names {
		r.set(n, c[n], unitOf(n), "")
	}
	return r
}

// sweepOverheads derives the sweep layer's costs from the sweep.Run spans
// under parent: pool idle time (each run's duration times the worker
// count, minus the cell time its workers were busy) and aggregation time
// (each run's self time: the part no cell span covers).
func sweepOverheads(spans []Span, parent, workers int) (idleS, aggregateMs float64) {
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Name != "sweep.Run" || s.Parent != parent {
			continue
		}
		idleS += float64(s.dur()*int64(workers)-childSum(spans, s.ID)) / 1e9
		aggregateMs += float64(self[s.ID]) / 1e6
	}
	return idleS, aggregateMs
}

// jobTime is a batch's summed job time. A traced job's time is taken
// before any rerun into a larger log (see complete), so the tracing
// overhead it shows is the cost of recording events, not of simulating a
// run twice.
func jobTime(o batchOut) float64 { return sum(o.cells) }

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "ns_per_"):
		return "ns"
	case strings.Contains(name, "_mb_"):
		return "MB"
	case name == "fabric.bytes_wire", name == "mpci.copy_bytes":
		return "B"
	}
	return "count"
}
