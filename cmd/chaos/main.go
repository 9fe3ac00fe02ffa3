// Command chaos runs the fault-injection acceptance harness: verifying
// MPI workloads under named fault plans, gated on payload-exact results,
// completion (no protocol deadlock), bounded completion-time inflation,
// and bit-identical same-seed reruns.
//
// Usage:
//
//	chaos                                    # every preset plan, seeds 1 2
//	chaos -plans burst-loss,corruptor -seeds 2
//	chaos -plans @myplan.json -workloads pingpong-enhanced -v
//	chaos -json CHAOS.json                   # persist the chaos/v1 artifact
//
// Exit status 1 means at least one gate failed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"splapi/internal/chaos"
	"splapi/internal/cliconf"
	"splapi/internal/faults"
)

func main() { os.Exit(run()) }

func run() int {
	plans := flag.String("plans", strings.Join(faults.PresetNames(), ","), "comma-separated fault plans (presets, uniform:drop=P,..., or @file.json)")
	seeds := flag.Int("seeds", 2, "number of seeds per (plan, workload): 1..N")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all)")
	jsonOut := flag.String("json", "", "write the chaos/v1 result artifact to this path")
	verbose := flag.Bool("v", false, "print one line per run")
	flag.Parse()

	o := chaos.Options{Git: cliconf.GitDescribe()}
	for _, p := range strings.Split(*plans, ",") {
		if p = strings.TrimSpace(p); p != "" {
			o.Plans = append(o.Plans, p)
		}
	}
	for s := int64(1); s <= int64(*seeds); s++ {
		o.Seeds = append(o.Seeds, s)
	}
	if *workloads != "" {
		for _, name := range strings.Split(*workloads, ",") {
			w, err := chaos.WorkloadByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaos:", err)
				return 2
			}
			o.Workloads = append(o.Workloads, w)
		}
	}
	if *verbose {
		o.Verbose = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	// Ctrl-C (or SIGTERM) lets the (workload, seed) run in flight finish
	// and then aborts the matrix without writing a partial artifact. A
	// second signal terminates at once.
	ctx, cancel := cliconf.InterruptContext()
	defer cancel()

	res, err := chaos.RunCtx(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 2
	}
	for _, pr := range res.Plans {
		verdict := "pass"
		if !pr.Pass {
			verdict = "FAIL"
		}
		nFail := 0
		for _, rr := range pr.Runs {
			if !rr.Pass() {
				nFail++
			}
		}
		fmt.Printf("%-40s %3d runs  %s", pr.Plan, len(pr.Runs), verdict)
		if nFail > 0 {
			fmt.Printf(" (%d failing)", nFail)
		}
		fmt.Println()
		for _, rr := range pr.Runs {
			for _, f := range rr.Failures {
				fmt.Printf("    %s seed=%d: %s\n", rr.Workload, rr.Seed, f)
			}
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if !res.Pass {
		fmt.Fprintln(os.Stderr, "chaos: gate failed")
		return 1
	}
	fmt.Println("chaos: all gates green")
	return 0
}
