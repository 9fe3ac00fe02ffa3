// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator from outside, through its public
// entry points (sweep.Run, bench.Cell.Run, bench.RunNASKernelOpts,
// cluster.New and spsimd's HTTP API), checks every output, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (normally through run.sh, which builds this binary and spsimd):
//
//	perfbench -workload paper-latency -seed 1 -seconds 10 -trace 0
//
// -trace 0 is the timed run and reports the end-to-end metrics; -trace 1
// is the separate traced run and reports the per-layer metrics. See
// README.md for every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"splapi/internal/cliconf"
)

func main() { os.Exit(run()) }

// workload is one named closed-loop workload. setup runs several times
// (the median of the durations it returns is setup_s) and replaces any
// state an earlier setup left; batch runs one fixed batch of jobs.
type workload interface {
	setup(e *env) (time.Duration, error)
	// prepare runs once after the last setup, untimed (the service
	// workload's warm-up round).
	prepare(e *env) error
	batch(e *env, b int, tr *tracer) batchOut
	// rssMB is the peak resident set of the process doing the work.
	rssMB() float64
	close()
}

// env is what every workload gets: where the checkout is, the seed, and
// how wide to run.
type env struct {
	root   string // checkout root: reference artifacts live here
	work   string // writable scratch directory inside the checkout
	spsimd string // built spsimd binary (service workload)
	seed   int64
	par    int
}

// batchSeed derives the seed of batch b from the workload seed, so the
// same seed always yields the same sequence of inputs.
func batchSeed(seed int64, b int) int64 { return seed*1_000_003 + int64(b) + 1 }

// batchOut is what one batch measured. Times are host milliseconds.
type batchOut struct {
	wall      time.Duration
	cells     []float64 // per simulation job (on service, per missed campaign)
	hits      []float64 // service: per cache hit
	requests  int       // service: requests completed (misses and hits)
	truncated int       // service: event streams that ended before the final state
	queueWait []float64 // service: submit to the job's running event
	runMs     []float64 // service: running event to done
	attempted int
	failures  []string
}

func (o *batchOut) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

var workloadNames = []string{"paper-latency", "paper-bandwidth", "nas", "service"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper-latency":
		return &sweepWL{ids: []string{"fig10", "fig11", "fig13", "ablate-ctxswitch", "ablate-eager"}}, nil
	case "paper-bandwidth":
		return &sweepWL{ids: []string{"fig12", "ablate-copies", "ring"}}, nil
	case "nas":
		return &nasWL{}, nil
	case "service":
		return &serviceWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// Set-up runs at least setupReps times and for at least setupSpan per
// invocation; setup_s is the median. A set-up can take a few ms, and the
// host's speed drifts over seconds, so the span spreads the set-ups over
// a stretch of drift, and the median keeps one slow start from moving it.
const (
	setupReps = 15
	setupSpan = 2 * time.Second
)

// minBatches is the fewest batches a timed run measures, unless the
// workload asks for more.
const minBatches = 3

// minRounder is implemented by workloads whose timed run must measure
// more than minBatches batches (service, to read spsimd's RSS after a
// fixed number of rounds).
type minRounder interface {
	minRounds() int
}

// hitSampler is implemented by workloads that measure cache-hit latency
// in a sample of their own (service).
type hitSampler interface {
	hitSample(e *env) batchOut
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "how long to measure")
		traced  = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		root    = flag.String("root", ".", "checkout root holding the reference artifacts")
		work    = flag.String("work", ".bench_build/run", "scratch directory for caches and trace output")
		spsimd  = flag.String("spsimd", ".bench_build/spsimd", "spsimd binary (service workload)")
	)
	flag.Parse()
	wl, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	e := &env{root: *root, work: *work, spsimd: *spsimd, seed: *seed, par: runtime.GOMAXPROCS(0)}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	prov := provenance(*name, *seed)
	fmt.Printf("# provenance %s\n", mustJSON(prov))
	defer wl.close()

	var setups []float64
	for t0 := time.Now(); len(setups) < setupReps || time.Since(t0) < setupSpan; {
		d, err := wl.setup(e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		setups = append(setups, d.Seconds())
	}
	if err := wl.prepare(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: prepare:", err)
		return 1
	}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 0 {
		res = timedRun(e, wl, budget, setups)
	} else {
		res = tracedRun(e, wl, budget, *name, prov)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.print()
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	failures  []string
	order     []string
	notes     map[string]string
}

func (r *result) set(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// No samples: only possible when every operation of that kind
		// failed, which the failure count already reports.
		v, note = 0, "no samples"
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
		r.notes = map[string]string{}
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// account adds the checks the batches made.
func (r *result) account(outs []batchOut) {
	for _, o := range outs {
		r.Attempted += o.attempted
		r.Failed += len(o.failures)
		r.failures = append(r.failures, o.failures...)
	}
}

// fail records a failed operation of the benchmark's own (a profile that
// cannot be read, a service metric that cannot be fetched).
func (r *result) fail(msg string) {
	r.Attempted++
	r.Failed++
	r.failures = append(r.failures, msg)
}

// print writes one human-readable line per metric, then the JSON result
// as the last line.
func (r *result) print() {
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Printf("%-28s %14.6g %-6s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
	fmt.Printf("%-28s %14.6g %-6s failed %d of %d checked outputs\n", "error_rate",
		ratio(float64(r.Failed), float64(r.Attempted)), "ratio", r.Failed, r.Attempted)
	fmt.Println(mustJSON(r))
}

// timedRun runs whole batches until the budget is spent (at least
// minBatches, or the workload's minRounds) and reports the end-to-end
// metrics. On service it then takes the hit-latency sample and prints it
// beside them.
func timedRun(e *env, wl workload, budget time.Duration, setups []float64) result {
	least := minBatches
	if m, ok := wl.(minRounder); ok {
		least = max(least, m.minRounds())
	}
	var outs []batchOut
	start := time.Now()
	for b := 0; b < least || time.Since(start) < budget; b++ {
		outs = append(outs, wl.batch(e, b, nil))
	}
	var r result
	r.account(outs)
	var walls, cells []float64
	for _, o := range outs {
		walls = append(walls, o.wall.Seconds())
		cells = append(cells, o.cells...)
	}
	n := func(xs []float64, q float64) string {
		return fmt.Sprintf("(n=%d, %d beyond p%.0f)", len(xs), beyond(xs, q), q*100)
	}
	r.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	r.set("wall_s", median(walls), "s", fmt.Sprintf("median batch makespan (n=%d batches)", len(walls)))
	r.set("cell_ms_p50", median(cells), "ms", n(cells, 0.5))
	r.set("cell_ms_p90", quantile(cells, 0.9), "ms", n(cells, 0.9))
	r.set("max_rss_mb", wl.rssMB(), "MB", "peak RSS of the working process")
	if hs, ok := wl.(hitSampler); ok {
		sample := hs.hitSample(e)
		r.account([]batchOut{sample})
		for _, l := range serviceLatencies(outs, sample).lines() {
			fmt.Println(l)
		}
	}
	return r
}

// svcLatency is what the service's clients saw: hit latency percentiles
// from the hit sample, and the request rate of the rounds.
type svcLatency struct {
	hitP50, hitP90, perSec float64
	hits, truncated        int
}

func serviceLatencies(rounds []batchOut, sample batchOut) svcLatency {
	var reqs int
	var busy time.Duration
	var truncated int
	for _, o := range rounds {
		reqs += o.requests
		busy += o.wall
		truncated += o.truncated
	}
	return svcLatency{
		hitP50: median(sample.hits), hitP90: quantile(sample.hits, 0.9),
		perSec: float64(reqs) / busy.Seconds(), hits: len(sample.hits), truncated: truncated,
	}
}

// lines renders the service latencies for the human-readable report;
// they are per-layer metrics of the campaign layer (see README.md).
func (s svcLatency) lines() []string {
	return []string{
		fmt.Sprintf("%-28s %14.6g %-6s (n=%d)", "campaign.hit_ms_p50", s.hitP50, "ms", s.hits),
		fmt.Sprintf("%-28s %14.6g %-6s (n=%d)", "campaign.hit_ms_p90", s.hitP90, "ms", s.hits),
		fmt.Sprintf("%-28s %14.6g %-6s", "campaign.requests_per_s", s.perSec, "1/s"),
		fmt.Sprintf("%-28s %14d %-6s event streams that ended before the job's final state",
			"campaign.stream_truncated", s.truncated, "count"),
	}
}

// selfRSSMB is this process's peak resident set.
func selfRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenance identifies the run: host fingerprint (the cmd/walltime
// format), GOMAXPROCS, Go version, code version, workload and seed.
func provenance(name string, seed int64) map[string]any {
	return map[string]any{
		"host":       hostFingerprint(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git":        cliconf.GitDescribe(),
		"workload":   name,
		"seed":       seed,
	}
}

// hostFingerprint matches cmd/walltime's: GOOS/GOARCH, CPU count and the
// CPU model name.
func hostFingerprint() string {
	model := ""
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = " " + strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s/%s ncpu=%d%s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), model)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs are encoded
	}
	return string(b)
}

// writeJSON writes v under the scratch directory.
func writeJSON(dir, name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
