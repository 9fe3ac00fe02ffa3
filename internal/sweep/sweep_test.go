package sweep

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"splapi/internal/bench"
	"splapi/internal/sim"
)

// syntheticExperiment builds a cheap experiment whose cell values are pure
// functions of (cell, seed), for harness tests that don't need a real
// simulation.
func syntheticExperiment(cells int) bench.Experiment {
	e := bench.Experiment{ID: "synthetic", Title: "synthetic", Unit: "us"}
	for i := 0; i < cells; i++ {
		i := i
		e.Cells = append(e.Cells, bench.Cell{
			Series: "s",
			X:      i,
			Run: func(rc bench.RunSpec) bench.Measurement {
				return bench.Measurement{
					Value:       float64(i)*1000 + float64(rc.Seed%97),
					VirtualTime: sim.Time(rc.Seed % 1000),
				}
			},
		})
	}
	return e
}

// TestParInvarianceSynthetic runs the same sweep at several pool sizes and
// asserts the serialized artifacts are byte-identical: results must not
// depend on worker count or scheduling.
func TestParInvarianceSynthetic(t *testing.T) {
	e := syntheticExperiment(23)
	var ref []byte
	for _, par := range []int{1, 2, 7, 32} {
		r, err := Run(e, Options{Seeds: 5, Par: par})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Fatalf("par=%d produced different bytes than par=1", par)
		}
	}
}

// TestParInvarianceRealExperiment is the full-stack version: a registry
// experiment (real clusters, engines, protocol stacks) swept serially and
// on a contended pool must serialize identically. This is the guard for
// hidden shared state anywhere in the stack.
func TestParInvarianceRealExperiment(t *testing.T) {
	e, err := bench.FindExperiment("ablate-eager")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(e, Options{Seeds: 2, Par: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(e, Options{Seeds: 2, Par: 4})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Encode(serial)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := Encode(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs, bp) {
		t.Fatalf("serial and 4-worker sweeps differ:\n%s\nvs\n%s", bs, bp)
	}
}

func TestCellSeedProperties(t *testing.T) {
	a := CellSeed(1, "fig10", "RAW LAPI", 64, 0)
	if a != CellSeed(1, "fig10", "RAW LAPI", 64, 0) {
		t.Fatal("CellSeed not deterministic")
	}
	if a < 0 {
		t.Fatalf("CellSeed negative: %d", a)
	}
	seen := map[int64]bool{a: true}
	for rep := 1; rep < 64; rep++ {
		s := CellSeed(1, "fig10", "RAW LAPI", 64, rep)
		if seen[s] {
			t.Fatalf("seed collision at rep %d", rep)
		}
		seen[s] = true
	}
	if CellSeed(2, "fig10", "RAW LAPI", 64, 0) == a {
		t.Fatal("base seed does not perturb derived seeds")
	}
	if CellSeed(1, "fig11", "RAW LAPI", 64, 0) == a {
		t.Fatal("experiment id does not perturb derived seeds")
	}
}

// TestFaultInjectionProducesDispersion checks that the seed list is doing
// real statistical work: with fabric faults on, different seeds must give
// different values, and the summary must report nonzero spread.
func TestFaultInjectionProducesDispersion(t *testing.T) {
	e := bench.Experiment{ID: "disp", Title: "dispersion probe", Unit: "us"}
	full, err := bench.FindExperiment("ablate-eager")
	if err != nil {
		t.Fatal(err)
	}
	e.Cells = full.Cells[:2]
	r, err := Run(e, Options{Seeds: 4, Par: 2, Faults: "uniform:drop=0.004"})
	if err != nil {
		t.Fatal(err)
	}
	spread := false
	for _, p := range r.Points {
		if p.Stats.Max > p.Stats.Min {
			spread = true
			if p.Stats.CI95Hi <= p.Stats.CI95Lo {
				t.Errorf("point %s/%d has spread but a degenerate CI", p.Series, p.X)
			}
		}
		if p.Stats.Median < p.Stats.Min || p.Stats.Median > p.Stats.Max {
			t.Errorf("point %s/%d: median %v outside [%v, %v]", p.Series, p.X, p.Stats.Median, p.Stats.Min, p.Stats.Max)
		}
	}
	if !spread {
		t.Error("drop injection across 4 seeds produced zero dispersion everywhere; seeds are not reaching the fabric RNG")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r, err := Run(syntheticExperiment(3), Options{Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.GitDescribe = "test-rev"
	path := filepath.Join(t.TempDir(), "BENCH_synthetic.json")
	if err := Save(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != r.Experiment || got.GitDescribe != "test-rev" || len(got.Points) != len(r.Points) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range r.Points {
		if !reflect.DeepEqual(got.Points[i], r.Points[i]) {
			t.Fatalf("point %d changed across round trip:\n%+v\nvs\n%+v", i, r.Points[i], got.Points[i])
		}
	}
	if got.Schema != SchemaV2 {
		t.Fatalf("saved artifact schema = %q, want %q", got.Schema, SchemaV2)
	}
	if !reflect.DeepEqual(got.Variance, r.Variance) {
		t.Fatalf("variance decomposition changed across round trip:\n%+v\nvs\n%+v", r.Variance, got.Variance)
	}
}

// noisySyntheticExperiment builds an experiment whose cell 0 is seed-
// independent (zero variance) and whose cell 1 spreads with the seed —
// the smallest matrix that exercises per-cell sequential stopping.
func noisySyntheticExperiment() bench.Experiment {
	e := bench.Experiment{ID: "noisy", Title: "noisy", Unit: "us"}
	e.Cells = append(e.Cells,
		bench.Cell{Series: "flat", X: 0, Run: func(rc bench.RunSpec) bench.Measurement {
			return bench.Measurement{Value: 100}
		}},
		bench.Cell{Series: "noisy", X: 0, Run: func(rc bench.RunSpec) bench.Measurement {
			return bench.Measurement{Value: 100 + float64(rc.Seed%977)}
		}},
	)
	return e
}

// TestSequentialStoppingPerCell: under -seeds-max/-rel-ci, a zero-variance
// cell must stop at the first batch while a noisy cell keeps burning seeds
// toward the cap, and the values of the seeds that did run must equal the
// fixed-seed sweep's (stopping only truncates, never perturbs).
func TestSequentialStoppingPerCell(t *testing.T) {
	e := noisySyntheticExperiment()
	r, err := Run(e, Options{Seeds: 3, SeedsMax: 24, RelCIPct: 1, Par: 4})
	if err != nil {
		t.Fatal(err)
	}
	byS := map[string]PointResult{}
	for _, p := range r.Points {
		byS[p.Series] = p
	}
	if n := byS["flat"].Stats.N; n != 3 {
		t.Errorf("zero-variance cell ran %d seeds, want the 3-seed minimum batch", n)
	}
	if n := byS["noisy"].Stats.N; n <= 3 {
		t.Errorf("noisy cell stopped at %d seeds; should have escalated", n)
	}
	full, err := Run(e, Options{Seeds: 24, Par: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Points {
		for _, fp := range full.Points {
			if fp.Series != p.Series || fp.X != p.X {
				continue
			}
			if !reflect.DeepEqual(p.Samples, fp.Samples[:len(p.Samples)]) {
				t.Errorf("%s: sequential samples are not a prefix of the fixed-seed sweep", p.Series)
			}
		}
	}
	// Stopping is part of the artifact's provenance.
	if r.SeedsMax != 24 || r.RelCIPct != 1 || r.Seeds != 3 {
		t.Errorf("stopping rule not recorded: %+v", r)
	}
}

// TestSequentialStoppingParInvariance: which seeds run is a pure function
// of the accumulated values, so the artifact must stay byte-identical at
// any pool size even with per-cell stopping.
func TestSequentialStoppingParInvariance(t *testing.T) {
	e := noisySyntheticExperiment()
	var ref []byte
	for _, par := range []int{1, 3, 16} {
		r, err := Run(e, Options{Seeds: 2, SeedsMax: 16, RelCIPct: 5, Par: par})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("par=%d produced different bytes under sequential stopping", par)
		}
	}
}

// TestSequentialStoppingFaultPlan is the acceptance demonstration on a
// real simulation: under a scripted fault plan, at least one low-variance
// cell must converge before -seeds-max (saving seeds), and sequential
// stopping must never run fewer than the minimum batch.
func TestSequentialStoppingFaultPlan(t *testing.T) {
	full, err := bench.FindExperiment("ablate-eager")
	if err != nil {
		t.Fatal(err)
	}
	e := bench.Experiment{ID: "stopdemo", Title: "stopping demo", Unit: "us", Direction: full.Direction}
	e.Cells = full.Cells[:2]
	r, err := Run(e, Options{Seeds: 2, SeedsMax: 6, RelCIPct: 10, Par: 2, Faults: "uniform:drop=0.002"})
	if err != nil {
		t.Fatal(err)
	}
	saved := false
	for _, p := range r.Points {
		if p.Stats.N < 2 || p.Stats.N > 6 {
			t.Fatalf("point %s ran %d seeds outside [2, 6]", p.Series, p.Stats.N)
		}
		if p.Stats.N < 6 {
			saved = true
		}
	}
	if !saved {
		t.Error("no cell converged before -seeds-max; stopping rule did no work")
	}
}

func TestSequentialStoppingOptionValidation(t *testing.T) {
	e := syntheticExperiment(1)
	if _, err := Run(e, Options{Seeds: 8, SeedsMax: 4, RelCIPct: 1}); err == nil {
		t.Error("SeedsMax < Seeds should error")
	}
	if _, err := Run(e, Options{Seeds: 2, SeedsMax: 8}); err == nil {
		t.Error("SeedsMax without RelCIPct should error")
	}
}

// TestVarianceDecomposition: a clean deterministic sweep is all
// parameter-axis variance (seed share 0); adding seed noise moves the
// share up.
func TestVarianceDecomposition(t *testing.T) {
	r, err := Run(syntheticExperiment(5), Options{Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variance) != 1 {
		t.Fatalf("got %d variance rows, want 1", len(r.Variance))
	}
	v := r.Variance[0]
	if v.ParamVar <= 0 {
		t.Errorf("synthetic cells differ by construction; parameter-axis variance = %v", v.ParamVar)
	}
	// syntheticExperiment values do vary with seed (seed%97), so the seed
	// share must be positive but far below the parameter axis (cells are
	// 1000 apart).
	if v.SeedVar <= 0 || v.SeedShare <= 0 || v.SeedShare > 0.5 {
		t.Errorf("seed-axis decomposition off: %+v", v)
	}

	noisy, err := Run(noisySyntheticExperiment(), Options{Seeds: 8})
	if err != nil {
		t.Fatal(err)
	}
	shares := map[string]SeriesVariance{}
	for _, sv := range noisy.Variance {
		shares[sv.Series] = sv
	}
	if sv := shares["flat"]; sv.SeedVar != 0 || sv.SeedShare != 0 {
		t.Errorf("flat series should be all parameter axis: %+v", sv)
	}
	if sv := shares["noisy"]; sv.SeedVar <= 0 || sv.SeedShare != 1 {
		// One cell only: no parameter axis, all seed axis.
		t.Errorf("noisy single-cell series should be all seed axis: %+v", sv)
	}
}

// TestRunPropagatesPanics: a panicking cell must surface as an error, not
// kill the process or hang the pool.
func TestRunPropagatesPanics(t *testing.T) {
	e := bench.Experiment{ID: "boom", Unit: "us", Cells: []bench.Cell{{
		Series: "s", X: 1,
		Run: func(rc bench.RunSpec) bench.Measurement { panic("kaboom") },
	}}}
	if _, err := Run(e, Options{Seeds: 2, Par: 2}); err == nil {
		t.Fatal("Run swallowed a cell panic")
	}
}

// TestValidateRejectsNegatives: parallelism options are validated
// explicitly — a negative is always a caller bug, and silently treating
// it as "default" used to mask flag-plumbing mistakes.
func TestValidateRejectsNegatives(t *testing.T) {
	o := Options{Par: -1}
	if _, err := o.Validate(); err == nil {
		t.Errorf("Validate accepted %+v", o)
	}
	if _, err := Run(bench.Experiment{ID: "x", Unit: "us"}, o); err == nil {
		t.Errorf("Run accepted %+v", o)
	}
}
