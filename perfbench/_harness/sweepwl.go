package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"splapi/internal/bench"
	"splapi/internal/sweep"
	"splapi/internal/tracelog"
)

// sweepWL is a paper workload: a fixed list of registry experiments, each
// swept at one seed per batch through sweep.Run at Par = GOMAXPROCS. The
// batch seed is the sweep's BaseSeed, so every batch runs fresh cell
// seeds; on the clean fabric the virtual-time results do not depend on
// the seed, which is what lets every batch be checked against the
// committed BENCH_<exp>.json at tolerance 0.
type sweepWL struct {
	ids  []string
	exps []bench.Experiment
}

// refPath is the committed reference artifact of an experiment.
func refPath(root, id string) string { return filepath.Join(root, "BENCH_"+id+".json") }

// setup builds the experiments, loads each reference artifact, and runs
// one untimed warm-up cell per experiment.
func (w *sweepWL) setup(e *env) (time.Duration, error) {
	t0 := time.Now()
	w.exps = w.exps[:0]
	for _, id := range w.ids {
		exp, err := bench.FindExperiment(id)
		if err != nil {
			return 0, err
		}
		if _, err := sweep.Load(refPath(e.root, id)); err != nil {
			return 0, err
		}
		exp.Cells[0].Run(bench.RunSpec{Seed: 1})
		w.exps = append(w.exps, exp)
	}
	return time.Since(t0), nil
}

func (w *sweepWL) prepare(*env) error { return nil }

// batch sweeps every experiment once, timing each Cell.Run, and checks
// each result against its reference artifact. The batch makespan is the
// sweep.Run time; the check is not part of it.
func (w *sweepWL) batch(e *env, b int, tr *tracer) batchOut {
	var out batchOut
	base := batchSeed(e.seed, b)
	for _, exp := range w.exps {
		var mu sync.Mutex
		runSpan := tr.begin(tr.rootSpan(), "sweep.Run")
		t0 := time.Now()
		res, err := sweep.Run(w.wrap(exp, runSpan, tr, func(d time.Duration) {
			mu.Lock()
			out.cells = append(out.cells, ms(d))
			mu.Unlock()
		}), sweep.Options{Seeds: 1, Par: e.par, BaseSeed: base})
		out.wall += time.Since(t0)
		tr.end(runSpan)
		if err != nil {
			out.check(false, "%s: sweep: %v", exp.ID, err)
			continue
		}
		err = gateSweep(refPath(e.root, exp.ID), res)
		out.check(err == nil, "%s batch %d: %v", exp.ID, b, err)
	}
	return out
}

// wrap returns a copy of exp whose cells time each Cell.Run, open a span
// under parent, and, when traced, attach an event log and fold the cell's
// counters.
func (w *sweepWL) wrap(exp bench.Experiment, parent int, tr *tracer, record func(time.Duration)) bench.Experiment {
	cells := make([]bench.Cell, len(exp.Cells))
	for i, c := range exp.Cells {
		run := c.Run
		c.Run = func(rc bench.RunSpec) bench.Measurement {
			sp := tr.begin(parent, "Cell.Run")
			tl := tr.newLog()
			rc.Trace = tl
			t0 := time.Now()
			m := run(rc)
			record(time.Since(t0))
			if tl != nil {
				// A rerun stays inside the cell's span: it is cell work,
				// not sweep aggregation.
				tl = complete(tl, func(l *tracelog.Log) { rc.Trace = l; run(rc) })
			}
			tr.end(sp)
			tr.fold(func(c counts) {
				c.foldReport(m.Trace)
				if tl != nil {
					c.foldEvents(tl, true)
				}
			})
			return m
		}
		cells[i] = c
	}
	exp.Cells = cells
	return exp
}

// gateSweep loads the reference artifact and demands that the fresh
// result have the same points, each matching at tolerance 0.
func gateSweep(ref string, res *sweep.Result) error {
	old, err := sweep.Load(ref)
	if err != nil {
		return err
	}
	deltas, err := sweep.Compare(old, res, sweep.CompareOpts{TolPct: 0})
	if err != nil {
		return err
	}
	if len(res.Points) != len(old.Points) {
		return fmt.Errorf("%d points, %s has %d", len(res.Points), ref, len(old.Points))
	}
	// Any movement fails, in either direction: no change to the program
	// may move a virtual-time result.
	for _, d := range deltas {
		if d.Moved || d.Missing {
			return fmt.Errorf("point %s x=%d is %g, %s has %g (tolerance 0)", d.Series, d.X, d.New, ref, d.Old)
		}
	}
	return nil
}

func (w *sweepWL) rssMB() float64 { return selfRSSMB() }
func (w *sweepWL) close()         {}
