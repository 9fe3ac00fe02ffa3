// Command spsim regenerates the paper's experiments on the simulated SP
// system.
//
// Usage:
//
//	spsim -exp fig10|fig11|fig12|fig13|nas|table2|ablate-ctxswitch|ablate-copies|ablate-eager|generations|breakdown|stats|all
//	spsim -exp fig10 -json            # also write BENCH_fig10.json via the sweep harness
//	spsim -exp fig10 -trace out.json  # run the experiment's first cell traced, export Chrome trace JSON
//
// For multi-seed parallel sweeps with dispersion statistics, use cmd/sweep.
package main

import (
	"flag"
	"fmt"
	"os"

	"splapi/internal/bench"
	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/prof"
	"splapi/internal/sweep"
	"splapi/internal/tracelog"
)

func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiment to run (fig10, fig11, fig12, fig13, nas, table2, ablate-ctxswitch, ablate-copies, ablate-eager, generations, breakdown, stats, all)")
	jsonOut := flag.Bool("json", false, "additionally write BENCH_<exp>.json for registry experiments (single seed; use cmd/sweep for multi-seed)")
	traceOut := flag.String("trace", "", "run the named registry experiment's first cell with event tracing and write a Chrome trace-event file (load in Perfetto)")
	traceSeed := flag.Int64("traceseed", 1, "seed for the -trace run")
	faultSpec := flag.String("faults", "", "fault plan for the -trace run: 'uniform:drop=P,dup=P,corrupt=P', a preset name, or '@plan.json' (a clean fabric consumes no randomness, so only faulted runs diverge across seeds)")
	pf := prof.Flags()
	flag.Parse()
	stop, err := pf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsim:", err)
		return 2
	}
	defer stop()

	run := func(name string) bool { return *exp == "all" || *exp == name }
	any := false
	if run("fig10") {
		any = true
		bench.PrintSeries(os.Stdout, "Figure 10: raw LAPI vs MPI-LAPI designs (one-way time, polling)", "us", bench.Fig10())
		fmt.Println()
	}
	if run("fig11") {
		any = true
		bench.PrintSeries(os.Stdout, "Figure 11: native MPI vs MPI-LAPI Enhanced (one-way latency, polling)", "us", bench.Fig11())
		fmt.Println()
	}
	if run("fig12") {
		any = true
		bench.PrintSeries(os.Stdout, "Figure 12: native MPI vs MPI-LAPI Enhanced (streaming bandwidth)", "MB/s", bench.Fig12())
		fmt.Println()
	}
	if run("fig13") {
		any = true
		bench.PrintSeries(os.Stdout, "Figure 13: native MPI vs MPI-LAPI Enhanced (one-way latency, interrupt mode)", "us", bench.Fig13())
		fmt.Println()
	}
	if run("table2") {
		any = true
		bench.PrintTable2(os.Stdout)
		fmt.Println()
	}
	if run("nas") {
		any = true
		bench.PrintNAS(os.Stdout)
		fmt.Println()
	}
	if run("ablate-ctxswitch") {
		any = true
		bench.PrintAblateCtxSwitch(os.Stdout)
		fmt.Println()
	}
	if run("ablate-copies") {
		any = true
		bench.PrintAblateCopies(os.Stdout)
		fmt.Println()
	}
	if run("ablate-eager") {
		any = true
		bench.PrintAblateEager(os.Stdout)
		fmt.Println()
	}
	if run("generations") {
		any = true
		bench.PrintNodeGenerations(os.Stdout)
		fmt.Println()
	}
	if run("breakdown") {
		any = true
		bench.PrintBreakdowns(os.Stdout)
		fmt.Println()
	}
	if run("stats") {
		any = true
		if err := bench.PrintStats(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "spsim: stats:", err)
			return 1
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "spsim: unknown experiment %q\n", *exp)
		flag.Usage()
		return 2
	}
	if *traceOut != "" {
		e, err := bench.FindExperiment(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spsim: -trace needs a registry experiment:", err)
			return 2
		}
		c := e.Cells[0]
		tl := tracelog.New(1 << 20)
		plan, err := faults.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			return 2
		}
		var mod bench.ParamMod
		if !plan.Empty() {
			mod = func(p *machine.Params) { p.Faults = plan }
		}
		c.Run(bench.RunSpec{Seed: *traceSeed, Mod: mod, Trace: tl})
		if err := tracelog.WriteChromeFile(*traceOut, tl); err != nil {
			fmt.Fprintln(os.Stderr, "spsim:", err)
			return 1
		}
		fmt.Printf("wrote %s (%s/%d, %d events, %d dropped)\n", *traceOut, c.Series, c.X, tl.Len(), tl.Dropped())
	}
	if *jsonOut {
		for _, e := range bench.Experiments() {
			if !run(e.ID) {
				continue
			}
			res, err := sweep.Run(e, sweep.Options{Seeds: 1})
			if err != nil {
				fmt.Fprintln(os.Stderr, "spsim:", err)
				return 1
			}
			path := "BENCH_" + e.ID + ".json"
			if err := sweep.Save(path, res); err != nil {
				fmt.Fprintln(os.Stderr, "spsim:", err)
				return 1
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	return 0
}
