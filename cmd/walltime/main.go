// Command walltime measures the simulator's own wall-clock throughput and
// persists it as a machine-readable artifact, so every PR's effect on host
// performance is visible in the repo history (the virtual-time BENCH_*.json
// sweeps deliberately cannot show this).
//
// Usage:
//
//	walltime -rounds 5 -o BENCH_walltime.json
//	walltime -baseline BENCH_walltime_baseline.json -o BENCH_walltime.json
//	walltime -smoke             # 1 round, tiny iteration counts (CI bit-rot check)
//
// Each benchmark runs rounds times; the artifact records every round's
// ns/op plus the median (wall-clock dispersion is real, so the median-of-N
// discipline from the multi-seed sweeps applies here too). Allocations are
// measured with runtime.ReadMemStats around each round. With -baseline the
// named artifact is embedded in the output and a speedup table is printed.
// The schema is documented in EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"splapi/internal/bench"
	"splapi/internal/cliconf"
	"splapi/internal/cluster"
	"splapi/internal/sim"
)

// Result is one benchmark's aggregated measurement.
type Result struct {
	Name        string    `json:"name"`
	Iters       int       `json:"iters"`
	Rounds      []float64 `json:"rounds_ns_per_op"`
	NsPerOp     float64   `json:"ns_per_op"` // median of Rounds
	PerSec      float64   `json:"per_sec"`   // 1e9 / NsPerOp
	AllocsPerOp float64   `json:"allocs_per_op"`
}

// Artifact is the BENCH_walltime.json schema ("walltime/v2"). Artifacts
// from before the sharded engine was removed also carry shards/* entries
// with a per-result shards field; they load unchanged, and the gate only
// looks up the benchmarks it names. Host was added in v1 and is optional:
// artifacts written before it exist compare as a host mismatch, which
// demotes the overhead gate to report-only.
type Artifact struct {
	Schema     string    `json:"schema"`
	Git        string    `json:"git"`
	Go         string    `json:"go"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Host       string    `json:"host,omitempty"`
	Rounds     int       `json:"rounds"`
	Benchmarks []Result  `json:"benchmarks"`
	Baseline   *Artifact `json:"baseline,omitempty"`
}

// hostFingerprint identifies the machine class an artifact was measured
// on. Wall-clock ns/op numbers are only comparable between runs on the
// same kind of host; the canary normalizes uniform speed drift but cannot
// bridge different CPUs, whose relative per-benchmark costs differ.
func hostFingerprint() string {
	model := ""
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				model = " " + strings.TrimSpace(val)
				break
			}
		}
	}
	return fmt.Sprintf("%s/%s ncpu=%d%s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), model)
}

func refHostLabel(h string) string {
	if h == "" {
		return "(unrecorded: artifact predates the host fingerprint)"
	}
	return h
}

type benchmark struct {
	name  string
	iters int // per-round iterations at full scale
	run   func(iters int)
}

// benchmarks mirrors the `go test -bench` suite (internal/sim/bench_test.go
// and the top-level bench_test.go) so the committed artifact and the ad-hoc
// bench runs measure the same workloads.
var benchmarks = []benchmark{
	{"kernel/events", 400000, runEvents},
	{"kernel/timer-stop", 400000, runTimerStop},
	{"kernel/sleep", 100000, runSleep},
	{"mpi/pingpong-1KiB", 24, runPingPong},
	{"sweep/fig10-cell-64KiB", 4, runFig10Cell},
}

// runEvents is the events/sec kernel microbenchmark: schedule and dispatch
// no-op callbacks with a standing batch in the queue.
func runEvents(iters int) {
	e := sim.NewEngine(1)
	fn := func() {}
	const batch = 512
	pending := 0
	for i := 0; i < iters; i++ {
		e.After(sim.Time(pending), fn)
		pending++
		if pending == batch {
			e.Run(0)
			pending = 0
		}
	}
	e.Run(0)
}

// runTimerStop is the arm-then-cancel cycle of the transport ack/rtx timers.
func runTimerStop(iters int) {
	e := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < iters; i++ {
		tm := e.After(64, fn)
		tm.Stop()
		if i&255 == 255 {
			e.Run(0)
		}
	}
	e.Run(0)
}

// runSleep is the park/unpark round trip of Proc.Sleep.
func runSleep(iters int) {
	e := sim.NewEngine(1)
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			p.Sleep(1)
		}
	})
	e.Run(0)
}

// runPingPong is one complete 1 KiB Enhanced ping-pong cell per iteration.
func runPingPong(iters int) {
	for i := 0; i < iters; i++ {
		bench.MPIPingPong(cluster.LAPIEnhanced, 1024, false)
	}
}

// runFig10Cell is the 64 KiB MPI-LAPI Enhanced cell of the fig10 sweep,
// trace collection included, exactly as cmd/sweep executes it.
func runFig10Cell(iters int) {
	var cell bench.Cell
	for _, c := range bench.Fig10Experiment().Cells {
		if c.Series == "MPI-LAPI Enhanced" && c.X == 65536 {
			cell = c
		}
	}
	if cell.Run == nil {
		panic("walltime: fig10 cell MPI-LAPI Enhanced/65536 not found")
	}
	for i := 0; i < iters; i++ {
		cell.Run(bench.RunSpec{Seed: 1})
	}
}

// measure runs one round and returns (ns/op, allocs/op).
func measure(b benchmark, iters int) (float64, float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	b.run(iters)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n, float64(m1.Mallocs-m0.Mallocs) / n
}

// best returns a Result's fastest round — the noise-robust statistic the
// overhead gate compares (one descheduling event inflates a median; nothing
// makes a CPU-bound round run faster than the code allows).
func best(r Result) float64 {
	b := r.NsPerOp
	for _, n := range r.Rounds {
		if n < b {
			b = n
		}
	}
	return b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	var (
		rounds     = flag.Int("rounds", 5, "rounds per benchmark (median is reported)")
		out        = flag.String("o", "", "output artifact path (default: print only)")
		baseline   = flag.String("baseline", "", "embed this prior artifact and print speedups")
		smoke      = flag.Bool("smoke", false, "1 round, tiny iteration counts (bit-rot check only)")
		gateRef    = flag.String("gateref", "", "reference artifact for the overhead gate")
		gatePct    = flag.Float64("gate", 0, "fail (exit 1) when a gated benchmark is more than this percent slower than -gateref (best round vs best round: the minimum is the noise-robust statistic for a CPU-bound benchmark on a shared host)")
		gateList   = flag.String("gatebench", "kernel/events,mpi/pingpong-1KiB", "comma-separated benchmark names the gate checks")
		gateCanary = flag.String("gatecanary", "kernel/timer-stop", "benchmark used to normalize out uniform host-speed drift between the reference run and this one (\"\" disables)")
	)
	flag.Parse()

	if *smoke {
		*rounds = 1
	}
	art := Artifact{
		Schema:     "walltime/v2",
		Git:        cliconf.GitDescribe(),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host:       hostFingerprint(),
		Rounds:     *rounds,
	}
	for _, b := range benchmarks {
		iters := b.iters
		if *smoke {
			iters = b.iters / 400
			if iters < 1 {
				iters = 1
			}
		}
		var ns, allocs []float64
		for r := 0; r < *rounds; r++ {
			n, a := measure(b, iters)
			ns = append(ns, n)
			allocs = append(allocs, a)
		}
		res := Result{
			Name:        b.name,
			Iters:       iters,
			Rounds:      ns,
			NsPerOp:     median(ns),
			AllocsPerOp: median(allocs),
		}
		res.PerSec = 1e9 / res.NsPerOp
		art.Benchmarks = append(art.Benchmarks, res)
		fmt.Printf("%-26s %12.1f ns/op %14.0f /sec %12.1f allocs/op\n",
			b.name, res.NsPerOp, res.PerSec, res.AllocsPerOp)
	}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "walltime:", err)
			os.Exit(2)
		}
		var base Artifact
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintln(os.Stderr, "walltime:", err)
			os.Exit(2)
		}
		base.Baseline = nil // no nesting
		art.Baseline = &base
		fmt.Printf("\nvs baseline %s:\n", base.Git)
		byName := make(map[string]Result)
		for _, r := range base.Benchmarks {
			byName[r.Name] = r
		}
		for _, r := range art.Benchmarks {
			b, ok := byName[r.Name]
			if !ok || r.NsPerOp == 0 {
				continue
			}
			allocCut := 0.0
			if b.AllocsPerOp > 0 {
				allocCut = 100 * (1 - r.AllocsPerOp/b.AllocsPerOp)
			}
			fmt.Printf("%-26s %6.2fx faster   allocs/op %10.1f -> %-10.1f (-%.1f%%)\n",
				r.Name, b.NsPerOp/r.NsPerOp, b.AllocsPerOp, r.AllocsPerOp, allocCut)
		}
	}

	if *gatePct > 0 {
		if *gateRef == "" {
			fmt.Fprintln(os.Stderr, "walltime: -gate needs -gateref")
			os.Exit(2)
		}
		data, err := os.ReadFile(*gateRef)
		if err != nil {
			fmt.Fprintln(os.Stderr, "walltime:", err)
			os.Exit(2)
		}
		var ref Artifact
		if err := json.Unmarshal(data, &ref); err != nil {
			fmt.Fprintln(os.Stderr, "walltime:", err)
			os.Exit(2)
		}
		refByName := make(map[string]Result)
		for _, r := range ref.Benchmarks {
			refByName[r.Name] = r
		}
		curByName := make(map[string]Result)
		for _, r := range art.Benchmarks {
			curByName[r.Name] = r
		}
		benchByName := make(map[string]benchmark)
		for _, b := range benchmarks {
			benchByName[b.name] = b
		}
		// The committed reference was measured at some other time; a shared
		// host runs measurably slower for minutes at a stretch, which would
		// read as a regression in every benchmark at once. The canary is a
		// benchmark the gated code paths don't touch: its best-round ratio
		// estimates the host-speed shift, and gated comparisons are scaled
		// by it so only *relative* slowdowns — real code overhead — remain.
		scale := 1.0
		if *gateCanary != "" {
			if r, ok := refByName[*gateCanary]; ok {
				if c, ok2 := curByName[*gateCanary]; ok2 && best(r) > 0 {
					scale = best(c) / best(r)
				}
			}
		}
		// The gate is a same-host comparison: the canary corrects uniform
		// speed drift on one machine, not the different per-benchmark cost
		// ratios of a different CPU. On a mismatch (or a pre-fingerprint
		// reference) the comparison still prints — the numbers are useful
		// context — but it cannot fail the build.
		reportOnly := ref.Host == "" || ref.Host != art.Host
		if reportOnly {
			fmt.Fprintf(os.Stderr,
				"walltime: WARNING: reference artifact was measured on a different host\n"+
					"  reference: %s\n  this run:  %s\n"+
					"  the overhead gate is report-only; re-run `make bench` on this host to re-arm it\n",
				refHostLabel(ref.Host), art.Host)
		}
		failed := false
		fmt.Printf("\noverhead gate (+%g%%, best round vs %s, host scale %.3f via %s):\n",
			*gatePct, ref.Git, scale, *gateCanary)
		for _, name := range strings.Split(*gateList, ",") {
			name = strings.TrimSpace(name)
			r, ok := refByName[name]
			c, ok2 := curByName[name]
			if !ok || !ok2 || r.NsPerOp == 0 {
				fmt.Fprintf(os.Stderr, "walltime: gate: benchmark %q missing from run or reference\n", name)
				failed = true
				continue
			}
			rBest, cBest := best(r), best(c)
			pct := 100 * (cBest/(rBest*scale) - 1)
			// A host-noise burst can outlast a whole run and inflate even
			// the best round; re-measure a failing benchmark (bounded)
			// before believing the regression.
			for attempt := 1; pct > *gatePct && attempt <= 2; attempt++ {
				bm, ok := benchByName[name]
				if !ok {
					break
				}
				nb := math.Inf(1)
				for round := 0; round < *rounds; round++ {
					n, _ := measure(bm, c.Iters)
					nb = math.Min(nb, n)
				}
				fmt.Printf("  %-26s retry %d: best %.1f ns/op\n", name, attempt, nb)
				cBest = math.Min(cBest, nb)
				pct = 100 * (cBest/(rBest*scale) - 1)
			}
			verdict := "ok"
			if pct > *gatePct {
				if reportOnly {
					verdict = "slow (report-only: host mismatch)"
				} else {
					verdict = "FAIL"
					failed = true
				}
			}
			fmt.Printf("  %-26s %12.1f -> %-12.1f ns/op  %+6.2f%%  %s\n", name, rBest, cBest, pct, verdict)
		}
		if failed {
			fmt.Fprintln(os.Stderr, "walltime: overhead gate failed")
			os.Exit(1)
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "walltime:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "walltime:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
}
