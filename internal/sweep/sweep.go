// Package sweep is the parallel experiment-sweep harness: it expands a
// config matrix (experiment cells × machine-parameter overrides × seed
// list), runs every resulting configuration as an isolated sim.Engine
// instance on a worker pool, aggregates the repetitions into dispersion
// statistics, and persists machine-readable results.
//
// Two properties make this sound:
//
//   - every cell run builds its own cluster and therefore its own engine,
//     RNG, and event queue — a fully independent deterministic universe —
//     so the matrix is embarrassingly parallel;
//   - the seed of every run is derived deterministically from the cell's
//     identity and repetition index (never from worker identity or
//     completion order), so the aggregated results are bit-identical no
//     matter how many workers run the sweep or how the scheduler
//     interleaves them.
//
// The methodology (repetitions, median + spread rather than single-run
// numbers, median confidence intervals and nonparametric old-vs-new
// comparison rather than normal-theory mean CIs, sequential seed stopping
// so campaigns only spend repetitions where the variance demands them, a
// reproducible harness) follows "MPI Benchmarking Revisited: Experimental
// Design and Reproducibility" (Hunold & Carpen-Amarie).
package sweep

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"splapi/internal/bench"
	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/trace"
	"splapi/internal/tracelog"
)

// Options configures a sweep run.
type Options struct {
	// Seeds is the number of repetitions per cell (default 1). Repetition
	// r of a cell runs with a seed derived from (experiment, series, x, r).
	// With sequential stopping enabled it is the first (and per-round)
	// batch size: the minimum seeds every cell runs.
	Seeds int
	// SeedsMax, together with RelCIPct, enables sequential stopping: each
	// cell runs batches of Seeds repetitions until the relative half-width
	// of its median CI falls to RelCIPct percent or SeedsMax repetitions
	// have run. Cells converge independently, so a 1024-node campaign
	// stops burning seeds on low-variance cells while noisy cells keep
	// sampling. Zero (the default) disables stopping: every cell runs
	// exactly Seeds repetitions.
	SeedsMax int
	// RelCIPct is the sequential-stopping target: convergence means
	// (CI95Hi-CI95Lo)/2 <= RelCIPct/100 * |median| (for a zero median,
	// a zero-width interval). Must be set iff SeedsMax is.
	RelCIPct float64
	// Par is the worker-pool size; <= 0 means GOMAXPROCS.
	Par int
	// BaseSeed perturbs every derived seed, giving a fresh family of
	// repetitions (default 1).
	BaseSeed int64
	// Faults is a matrix-level fault-plan spec (see faults.Parse: "none",
	// "uniform:drop=P,dup=P,corrupt=P", a preset name, or "@file.json")
	// applied to every cell. On a clean fabric the simulator is
	// deterministic per seed and the dispersion statistics collapse to a
	// point; with faults enabled the seed list yields a real distribution.
	Faults string
	// GitDescribe is recorded in the result for provenance (the CLI fills
	// it from `git describe`).
	GitDescribe string
	// Trace attaches a fresh event log to every cell run. The logs are
	// discarded — the option exists to prove (in determinism checks) that
	// tracing cannot move a virtual-time result.
	Trace bool
	// Progress, when non-nil, receives one host-side event per completed
	// repetition. Events arrive from worker goroutines serialized by an
	// internal mutex, but their order reflects scheduling, not cell order
	// — progress is observability only and must never feed back into the
	// result (which stays bit-identical with or without a callback).
	Progress func(Progress)
}

// Progress is one host-side progress event: repetition Rep of cell Cell
// finished, Done of the Planned repetitions currently scheduled are
// complete. Planned grows when sequential stopping schedules another
// batch, so Done/Planned is a live fraction, not a final one.
type Progress struct {
	Cell    int    `json:"cell"`
	Series  string `json:"series"`
	X       int    `json:"x"`
	Rep     int    `json:"rep"`
	Done    int    `json:"done"`
	Planned int    `json:"planned"`
}

// Validate checks the parallelism options and resolves the worker-pool
// size. A negative Par is rejected explicitly — it is always a caller
// bug, and silently treating it as "default" used to mask flag-plumbing
// mistakes.
func (o Options) Validate() (workers int, err error) {
	if o.Par < 0 {
		return 0, fmt.Errorf("sweep: Par must be >= 0, got %d", o.Par)
	}
	if o.Par == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return o.Par, nil
}

// TraceCounters is the compact per-point protocol/fabric counter summary,
// taken from the repetition-0 run (deterministic). It lets a result file
// explain its own timings: a latency regression with a retransmit spike
// reads very differently from one without.
type TraceCounters struct {
	PacketsSent uint64 `json:"packetsSent"`
	Retransmits uint64 `json:"retransmits"`
	Injected    uint64 `json:"injected"`
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Duplicated  uint64 `json:"duplicated"`
	Reordered   uint64 `json:"reordered"`
	BytesWire   uint64 `json:"bytesWire"`
	// Reliability counters (all zero on a clean fabric; omitted from the
	// JSON then, so fault-free artifacts are byte-identical to ones
	// written before these fields existed).
	Timeouts     uint64 `json:"timeouts,omitempty"`
	Corrupted    uint64 `json:"corrupted,omitempty"`
	CorruptDrops uint64 `json:"corruptDrops,omitempty"`
	RouteMasked  uint64 `json:"routeMasked,omitempty"`
	NoRouteDrops uint64 `json:"noRouteDrops,omitempty"`
	StallDelays  uint64 `json:"stallDelays,omitempty"`
	FIFODrops    uint64 `json:"fifoDrops,omitempty"`
}

func countersOf(r *trace.Report) TraceCounters {
	if r == nil {
		return TraceCounters{}
	}
	return TraceCounters{
		PacketsSent:  r.TotalPacketsSent(),
		Retransmits:  r.TotalRetransmits(),
		Injected:     r.Fabric.Injected,
		Delivered:    r.Fabric.Delivered,
		Dropped:      r.Fabric.Dropped,
		Duplicated:   r.Fabric.Duplicated,
		Reordered:    r.Fabric.Reordered,
		BytesWire:    r.Fabric.BytesWire,
		Timeouts:     r.TotalTimeouts(),
		Corrupted:    r.Fabric.Corrupted,
		CorruptDrops: r.TotalCorruptDrops(),
		RouteMasked:  r.Fabric.RouteMasked,
		NoRouteDrops: r.Fabric.NoRouteDrops,
		StallDelays:  r.TotalStallDelays(),
		FIFODrops:    r.TotalFIFODrops(),
	}
}

// PointResult is the aggregate of all repetitions of one cell.
type PointResult struct {
	Series string        `json:"series"`
	X      int           `json:"x"`
	Stats  bench.Summary `json:"stats"`
	// Samples holds the raw per-repetition values in repetition order
	// (repetition r ran under CellSeed(..., r), so the correspondence is
	// recoverable). They are what makes the nonparametric regression gate
	// possible: Compare runs a rank-sum test on old-vs-new samples rather
	// than trusting any summary interval. New in sweep/v2; absent from
	// legacy artifacts.
	Samples []float64 `json:"samples,omitempty"`
	// VirtualTimeNs is the summed virtual time of all repetitions: the
	// simulated cost of producing this point.
	VirtualTimeNs int64         `json:"virtualTimeNs"`
	Trace         TraceCounters `json:"trace"`
}

// SeriesVariance is the per-series variance decomposition of a result:
// how much of the observed spread comes from the seed axis (within-cell
// repetition noise — fault timing, retransmission tails) versus the
// parameter axis (between-cell movement of the median along x). A fault
// sweep whose seed share approaches 1 is telling you the signal drowned;
// a clean-fabric sweep has seed share exactly 0.
type SeriesVariance struct {
	Series string `json:"series"`
	// SeedVar is the mean within-cell sample variance (Std^2) across the
	// series' points.
	SeedVar float64 `json:"seedVar"`
	// ParamVar is the population variance of the per-cell medians across
	// the series' x values.
	ParamVar float64 `json:"paramVar"`
	// SeedShare = SeedVar / (SeedVar + ParamVar); 0 when both vanish.
	SeedShare float64 `json:"seedShare"`
}

// Overrides records the matrix-level parameter overrides a result was
// produced under.
//
// Older artifacts also carry dropProb/dupProb fields, the retired flat
// fault knobs; they are zero in every committed file and Load ignores
// them.
type Overrides struct {
	// Faults is the fault-plan spec the sweep ran under ("" = clean
	// fabric; omitted then, keeping fault-free artifacts byte-identical).
	Faults string `json:"faults,omitempty"`
}

// Result is the persisted outcome of sweeping one experiment. Every field
// serialized to JSON is a deterministic function of (experiment, options),
// so the artifact is bit-identical regardless of worker count; wall-clock
// cost and pool size are observable on the struct but deliberately kept
// out of the file (json:"-") to preserve that property.
type Result struct {
	// Schema tags the artifact format: SchemaV2 ("sweep/v2") for files
	// written by this version. Legacy files carry no schema field and are
	// normalized by Load; see json.go.
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	Unit       string `json:"unit"`
	// Direction is the declared regression direction of the metric
	// (bench.LowerIsBetter / bench.HigherIsBetter), so the gate never
	// infers it from unit spelling. Empty on legacy artifacts.
	Direction   string `json:"direction,omitempty"`
	GitDescribe string `json:"gitDescribe"`
	Seeds       int    `json:"seeds"`
	// SeedsMax / RelCIPct record the sequential-stopping rule the sweep
	// ran under (zero: disabled, every point has exactly Seeds
	// repetitions). Per-point stats.n says how many seeds each cell
	// actually consumed.
	SeedsMax  int              `json:"seedsMax,omitempty"`
	RelCIPct  float64          `json:"relCIPct,omitempty"`
	BaseSeed  int64            `json:"baseSeed"`
	Overrides Overrides        `json:"overrides"`
	Variance  []SeriesVariance `json:"variance,omitempty"`
	Points    []PointResult    `json:"points"`

	// WallClock is the host time the sweep took; Par is the pool size
	// used. Reported by the CLI, not persisted.
	WallClock time.Duration `json:"-"`
	Par       int           `json:"-"`
}

// CellSeed derives the seed for repetition rep of a cell. It depends only
// on the cell's identity, never on scheduling, and decorrelates
// neighbouring cells by hashing.
func CellSeed(base int64, experiment, series string, x, rep int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d", experiment, series, x, rep, base)
	return int64(h.Sum64() >> 1) // keep it positive for readability
}

// converged reports whether a cell's accumulated statistics meet the
// sequential-stopping target: the median CI's relative half-width is at or
// under relCIPct percent (for a zero median, a zero-width interval).
func converged(s bench.Summary, relCIPct float64) bool {
	half := (s.CI95Hi - s.CI95Lo) / 2
	if s.Median == 0 {
		return half == 0
	}
	return half <= relCIPct/100*math.Abs(s.Median)
}

// varianceDecomp computes the per-series seed-axis vs parameter-axis
// variance decomposition over the aggregated points, in first-appearance
// series order (deterministic).
func varianceDecomp(points []PointResult) []SeriesVariance {
	var order []string
	medians := map[string][]float64{}
	seedVars := map[string][]float64{}
	for _, p := range points {
		if _, ok := medians[p.Series]; !ok {
			order = append(order, p.Series)
		}
		medians[p.Series] = append(medians[p.Series], p.Stats.Median)
		seedVars[p.Series] = append(seedVars[p.Series], p.Stats.Std*p.Stats.Std)
	}
	var out []SeriesVariance
	for _, series := range order {
		sv := SeriesVariance{Series: series}
		var sum float64
		for _, v := range seedVars[series] {
			sum += v
		}
		sv.SeedVar = sum / float64(len(seedVars[series]))
		m := medians[series]
		var mean float64
		for _, v := range m {
			mean += v
		}
		mean /= float64(len(m))
		var ss float64
		for _, v := range m {
			d := v - mean
			ss += d * d
		}
		sv.ParamVar = ss / float64(len(m))
		if total := sv.SeedVar + sv.ParamVar; total > 0 {
			sv.SeedShare = sv.SeedVar / total
		}
		out = append(out, sv)
	}
	return out
}

// Run sweeps every cell of the experiment across the seed list on a worker
// pool and aggregates the repetitions. With SeedsMax/RelCIPct set, cells
// run in batches of Seeds repetitions and stop independently once their
// median CI converges; the repetition seeds depend only on the repetition
// index, so stopping never changes the values a cell would have produced.
func Run(e bench.Experiment, o Options) (*Result, error) {
	return RunCtx(context.Background(), e, o)
}

// RunCtx is Run under a cancellation context. Cancellation is a drain,
// not an abort: repetitions already running on the pool complete (a cell
// run is an indivisible deterministic universe), queued ones are skipped,
// and RunCtx returns the context's error instead of a Result — a canceled
// sweep never yields a partial artifact that could be mistaken for a
// complete one.
func RunCtx(ctx context.Context, e bench.Experiment, o Options) (*Result, error) {
	seeds := o.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	maxSeeds := seeds
	sequential := o.SeedsMax != 0 || o.RelCIPct != 0
	if sequential {
		if o.SeedsMax < seeds {
			return nil, fmt.Errorf("sweep: SeedsMax (%d) must be at least Seeds (%d)", o.SeedsMax, seeds)
		}
		if o.RelCIPct <= 0 {
			return nil, fmt.Errorf("sweep: sequential stopping needs a positive RelCIPct target")
		}
		maxSeeds = o.SeedsMax
	}
	par, err := o.Validate()
	if err != nil {
		return nil, err
	}
	base := o.BaseSeed
	if base == 0 {
		base = 1
	}
	if e.Direction == "" {
		// Fail loudly rather than persist an artifact the gate would have
		// to guess a direction for.
		d, err := bench.DirectionForUnit(e.Unit)
		if err != nil {
			return nil, err
		}
		e.Direction = d
	} else if _, err := bench.ParseDirection(string(e.Direction)); err != nil {
		return nil, err
	}
	plan, err := faults.Parse(o.Faults)
	if err != nil {
		return nil, err
	}
	var mod bench.ParamMod
	if !plan.Empty() {
		mod = func(p *machine.Params) { p.Faults = plan }
	}

	// One slot per (cell, repetition): workers write only their own slot,
	// and aggregation reads the slots in deterministic cell order, so the
	// result is independent of scheduling. Batches grow the slot rows for
	// the cells that have not converged yet; which repetitions run is a
	// pure function of the accumulated values, never of worker timing.
	slots := make([][]bench.Measurement, len(e.Cells))
	stats := make([]bench.Summary, len(e.Cells))
	active := make([]int, len(e.Cells))
	for i := range active {
		active[i] = i
	}
	// Host-side progress accounting: done/planned counters shared by the
	// workers, serialized by progressMu. Purely observational.
	var (
		progressMu      sync.Mutex
		progressDone    int
		progressPlanned int
	)
	start := time.Now()
	for len(active) > 0 {
		type job struct{ cell, rep int }
		var batch []job
		for _, ci := range active {
			done := len(slots[ci])
			add := min(seeds, maxSeeds-done)
			slots[ci] = append(slots[ci], make([]bench.Measurement, add)...)
			for r := done; r < done+add; r++ {
				batch = append(batch, job{ci, r})
			}
		}
		progressPlanned += len(batch)
		jobs := make(chan job)
		var (
			wg       sync.WaitGroup
			panicked error
			panicMu  sync.Mutex
		)
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					if ctx.Err() != nil {
						continue // drain the queue without running
					}
					func() {
						defer func() {
							if r := recover(); r != nil {
								panicMu.Lock()
								if panicked == nil {
									panicked = fmt.Errorf("sweep: cell %d rep %d panicked: %v", j.cell, j.rep, r)
								}
								panicMu.Unlock()
							}
						}()
						c := e.Cells[j.cell]
						seed := CellSeed(base, e.ID, c.Series, c.X, j.rep)
						var tl *tracelog.Log
						if o.Trace {
							tl = tracelog.New(0)
						}
						slots[j.cell][j.rep] = c.Run(bench.RunSpec{Seed: seed, Mod: mod, Trace: tl})
					}()
					if o.Progress != nil {
						c := e.Cells[j.cell]
						progressMu.Lock()
						progressDone++
						ev := Progress{
							Cell: j.cell, Series: c.Series, X: c.X, Rep: j.rep,
							Done: progressDone, Planned: progressPlanned,
						}
						o.Progress(ev)
						progressMu.Unlock()
					}
				}
			}()
		}
	feed:
		for _, j := range batch {
			select {
			case jobs <- j:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		if panicked != nil {
			return nil, panicked
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sweep: canceled after draining in-flight cells, partial results discarded: %w", err)
		}
		var still []int
		for _, ci := range active {
			values := make([]float64, len(slots[ci]))
			for r, m := range slots[ci] {
				values[r] = m.Value
			}
			stats[ci] = bench.Summarize(values)
			if len(slots[ci]) >= maxSeeds || (sequential && converged(stats[ci], o.RelCIPct)) {
				continue
			}
			still = append(still, ci)
		}
		active = still
	}

	res := &Result{
		Schema:      SchemaV2,
		Experiment:  e.ID,
		Title:       e.Title,
		Unit:        e.Unit,
		Direction:   string(e.Direction),
		GitDescribe: o.GitDescribe,
		Seeds:       seeds,
		SeedsMax:    o.SeedsMax,
		RelCIPct:    o.RelCIPct,
		BaseSeed:    base,
		Overrides:   Overrides{Faults: o.Faults},
		WallClock:   time.Since(start),
		Par:         par,
	}
	for ci, c := range e.Cells {
		samples := make([]float64, len(slots[ci]))
		var vt int64
		for r, m := range slots[ci] {
			samples[r] = m.Value
			vt += int64(m.VirtualTime)
		}
		res.Points = append(res.Points, PointResult{
			Series:        c.Series,
			X:             c.X,
			Stats:         stats[ci],
			Samples:       samples,
			VirtualTimeNs: vt,
			Trace:         countersOf(slots[ci][0].Trace),
		})
	}
	res.Variance = varianceDecomp(res.Points)
	return res, nil
}
