package sweep

import (
	"fmt"
	"io"
)

// Print writes a human-readable summary of a sweep result: one row per
// point with the seeds consumed, the median, the observed range, the
// median-CI half-width and its construction method, plus the per-series
// seed-vs-parameter variance decomposition and the run's cost line
// (virtual seconds simulated, wall-clock, pool size).
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%s  [%s, %d seed(s), base %d]\n", r.Title, r.Unit, r.Seeds, r.BaseSeed)
	if r.SeedsMax > 0 {
		fmt.Fprintf(w, "  sequential stopping: batches of %d up to %d seeds, target rel CI %.3g%%\n",
			r.Seeds, r.SeedsMax, r.RelCIPct)
	}
	if r.Overrides.Faults != "" {
		fmt.Fprintf(w, "  fault injection: %s\n", r.Overrides.Faults)
	}
	fmt.Fprintf(w, "%-28s %10s %4s %12s %12s %12s %10s %10s %12s\n",
		"series", "x", "n", "median", "min", "max", "ci95±", "method", "rtx/pkts")
	var virtual int64
	for _, p := range r.Points {
		s := p.Stats
		method := s.CIMethod
		if method == "" {
			method = "mean-ci" // legacy v1 artifact
		}
		fmt.Fprintf(w, "%-28s %10d %4d %12.3f %12.3f %12.3f %10.3f %10s %6d/%d\n",
			p.Series, p.X, s.N, s.Median, s.Min, s.Max, (s.CI95Hi-s.CI95Lo)/2, method,
			p.Trace.Retransmits, p.Trace.PacketsSent)
		virtual += p.VirtualTimeNs
	}
	for _, v := range r.Variance {
		fmt.Fprintf(w, "  variance %-28s seed-axis %12.4g  parameter-axis %12.4g  seed share %5.1f%%\n",
			v.Series, v.SeedVar, v.ParamVar, v.SeedShare*100)
	}
	fmt.Fprintf(w, "  cost: %.3f virtual seconds", float64(virtual)/1e9)
	if r.WallClock > 0 {
		fmt.Fprintf(w, ", %v wall-clock on %d worker(s)", r.WallClock.Round(1e6), r.Par)
	}
	fmt.Fprintln(w)
}
