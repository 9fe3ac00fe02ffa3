package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splapi/internal/bench"
	"splapi/internal/sweep"
)

// The tests run in perfbench/_harness, two levels below the checkout root.
const testRoot = "../.."

func TestSweepGateTripsOnDoctoredArtifact(t *testing.T) {
	const id = "ablate-eager"
	exp, err := bench.FindExperiment(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(exp, sweep.Options{Seeds: 1, BaseSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	ref := refPath(testRoot, id)
	if err := gateSweep(ref, res); err != nil {
		t.Fatalf("fresh sweep fails the committed artifact: %v", err)
	}

	raw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	doctor := func(name string, edit func(*sweep.Result)) string {
		var r sweep.Result
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		p := filepath.Join(dir, name)
		if err := sweep.Save(p, &r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Both directions must trip: a virtual-time result that "improves"
	// is as wrong as one that regresses.
	for _, f := range []float64{1.001, 0.999} {
		p := doctor("moved.json", func(r *sweep.Result) {
			pt := &r.Points[3]
			pt.Stats.Median *= f
			pt.Stats.Min, pt.Stats.Max, pt.Stats.Mean = pt.Stats.Median, pt.Stats.Median, pt.Stats.Median
			pt.Stats.CI95Lo, pt.Stats.CI95Hi = pt.Stats.Median, pt.Stats.Median
			for i := range pt.Samples {
				pt.Samples[i] = pt.Stats.Median
			}
		})
		if err := gateSweep(p, res); err == nil {
			t.Errorf("gate passed an artifact with one point scaled by %g", f)
		}
	}
	p := doctor("extra.json", func(r *sweep.Result) {
		r.Points = append(r.Points, r.Points[0])
		r.Points[len(r.Points)-1].X = 123456
	})
	if err := gateSweep(p, res); err == nil {
		t.Error("gate passed a result missing a point of the artifact")
	}
	if err := gateSweep(filepath.Join(dir, "absent.json"), res); err == nil {
		t.Error("gate passed without a reference artifact")
	}
}

func TestNASGateTripsOnDoctoredGolden(t *testing.T) {
	w := &nasWL{}
	if _, err := w.setup(&env{root: testRoot}); err != nil {
		t.Fatal(err)
	}
	job := nasJob{k: w.kernels[0], stack: 1}
	r := bench.RunNASKernelOpts(job.k, nasStacks[job.stack], w.params, 5, nil)
	if err := checkNAS(testRoot, job, r); err != nil {
		t.Fatalf("fresh kernel fails the committed table: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(testRoot, goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	golden, _ := loadGolden(testRoot)
	want := golden[job.k.Name][job.stack]
	dir := t.TempDir()
	doctored := strings.Replace(string(raw), " "+want+" ", " 99"+want+" ", 1)
	if err := os.WriteFile(filepath.Join(dir, goldenFile), []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkNAS(dir, job, r); err == nil {
		t.Error("gate passed a doctored golden table")
	}
	r.Verified = false
	if err := checkNAS(testRoot, job, r); err == nil {
		t.Error("gate passed an unverified checksum")
	}
}
