// Package campaign is the core of the simulation-as-a-service layer: a
// typed description of one unit of requestable work (a sweep, chaos, or
// trace campaign), its validation, its canonical content-addressed digest,
// and a runner that executes it to a deterministic byte artifact.
//
// The digest is what makes the service's cache *exact* rather than
// heuristic: every field that can move a result — experiment, seed plan,
// fault plan, code version — is folded into a canonical JSON payload and
// hashed, and everything that cannot (worker-pool size, progress
// callbacks) is deliberately excluded. Because the simulator is
// deterministic per (request, code version), two requests with equal
// digests are guaranteed to produce byte-identical artifacts, so N
// identical queries cost one simulation and a cache hit is
// indistinguishable from a cold run.
package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"splapi/internal/bench"
	"splapi/internal/chaos"
	"splapi/internal/cliconf"
	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/sweep"
	"splapi/internal/tracelog"
)

// Kind names one campaign type.
type Kind string

const (
	// Sweep runs a full experiment matrix through internal/sweep and
	// yields a sweep/v2 JSON artifact.
	Sweep Kind = "sweep"
	// Chaos runs the fault-injection acceptance matrix through
	// internal/chaos and yields a chaos/v1 JSON artifact.
	Chaos Kind = "chaos"
	// Trace runs one experiment cell with an event log attached and
	// yields a Chrome trace-event (tracelog/v1) JSON artifact.
	Trace Kind = "trace"
)

// Request describes one campaign. The zero value of every optional field
// means its default; Canonicalize resolves the defaults so that two
// spellings of the same work digest identically.
type Request struct {
	Kind Kind `json:"kind"`

	// Experiment names a registry experiment (sweep and trace kinds).
	Experiment string `json:"experiment,omitempty"`

	// Sweep-shaped knobs (sweep kind; see sweep.Options).
	Seeds    int     `json:"seeds,omitempty"`
	SeedsMax int     `json:"seedsMax,omitempty"`
	RelCIPct float64 `json:"relCIPct,omitempty"`
	BaseSeed int64   `json:"baseSeed,omitempty"`
	// Faults is a fault-plan spec (faults.Parse grammar). The digest is
	// computed over the *parsed* plan, so equivalent spellings share a
	// cache entry.
	Faults string `json:"faults,omitempty"`

	// Chaos-shaped knobs (chaos kind).
	Plans      []string `json:"plans,omitempty"`
	Workloads  []string `json:"workloads,omitempty"`
	ChaosSeeds []int64  `json:"chaosSeeds,omitempty"`

	// Trace-shaped knobs (trace kind): Series/X select one cell of the
	// experiment (empty series means the experiment's first cell), Seed
	// is the run's seed.
	Series string `json:"series,omitempty"`
	X      int    `json:"x,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// keySchema tags the digest payload layout; bump it whenever the payload
// shape changes so stale cache entries can never be addressed again.
const keySchema = "spsimd-key/v2"

// keyPayload is the canonical digest input: the normalized request with
// every fault-plan spec replaced by its parsed Plan (JSON round-trip
// canonical form) plus the code version. Field order is fixed by the
// struct, so json.Marshal of this value is a canonical encoding.
type keyPayload struct {
	Schema     string        `json:"schema"`
	Code       string        `json:"code"`
	Kind       Kind          `json:"kind"`
	Experiment string        `json:"experiment,omitempty"`
	Seeds      int           `json:"seeds,omitempty"`
	SeedsMax   int           `json:"seedsMax,omitempty"`
	RelCIPct   float64       `json:"relCIPct,omitempty"`
	BaseSeed   int64         `json:"baseSeed,omitempty"`
	Plan       *faults.Plan  `json:"plan,omitempty"`
	Plans      []faults.Plan `json:"plans,omitempty"`
	Workloads  []string      `json:"workloads,omitempty"`
	ChaosSeeds []int64       `json:"chaosSeeds,omitempty"`
	Series     string        `json:"series,omitempty"`
	X          int           `json:"x,omitempty"`
	Seed       int64         `json:"seed,omitempty"`
}

// Canonicalize validates the request and resolves every default to its
// explicit value, so that spellings of the same work ("seeds omitted" vs
// "seeds: 1", a workload list omitted vs written out) normalize to one
// representative. Digest must only be computed over a canonicalized
// request.
func Canonicalize(req Request) (Request, error) {
	switch req.Kind {
	case Sweep:
		if req.Experiment == "" {
			return req, fmt.Errorf("campaign: sweep request needs an experiment (see /v1/experiments)")
		}
		e, err := bench.FindExperiment(req.Experiment)
		if err != nil {
			return req, err
		}
		req.Experiment = e.ID
		if err := (cliconf.SweepParams{
			Seeds: req.Seeds, SeedsMax: req.SeedsMax, RelCIPct: req.RelCIPct,
		}).Validate(); err != nil {
			return req, err
		}
		if _, err := faults.Parse(req.Faults); err != nil {
			return req, err
		}
		req.Faults = strings.TrimSpace(req.Faults)
		if req.Seeds <= 0 {
			req.Seeds = 1
		}
		if req.BaseSeed == 0 {
			req.BaseSeed = 1
		}
		if len(req.Plans) != 0 || len(req.Workloads) != 0 || len(req.ChaosSeeds) != 0 {
			return req, fmt.Errorf("campaign: sweep request must not carry chaos fields (plans, workloads, chaosSeeds)")
		}
		if req.Series != "" || req.X != 0 || req.Seed != 0 {
			return req, fmt.Errorf("campaign: sweep request must not carry trace fields (series, x, seed)")
		}
	case Chaos:
		if req.Experiment != "" || req.Seeds != 0 || req.SeedsMax != 0 || req.RelCIPct != 0 ||
			req.BaseSeed != 0 || req.Faults != "" || req.Series != "" || req.X != 0 || req.Seed != 0 {
			return req, fmt.Errorf("campaign: chaos request carries only plans, workloads, and chaosSeeds")
		}
		if len(req.Plans) == 0 {
			req.Plans = faults.PresetNames()
		}
		for _, spec := range req.Plans {
			p, err := faults.Parse(spec)
			if err != nil {
				return req, err
			}
			if p.Empty() {
				return req, fmt.Errorf("campaign: chaos plan %q is empty — the harness gates faulted runs against clean ones", spec)
			}
		}
		if len(req.Workloads) == 0 {
			for _, w := range chaos.Workloads() {
				req.Workloads = append(req.Workloads, w.Name)
			}
		}
		for _, name := range req.Workloads {
			if _, err := chaos.WorkloadByName(name); err != nil {
				return req, err
			}
		}
		if len(req.ChaosSeeds) == 0 {
			req.ChaosSeeds = []int64{1, 2}
		}
	case Trace:
		if req.Experiment == "" {
			return req, fmt.Errorf("campaign: trace request needs an experiment (see /v1/experiments)")
		}
		if req.Seeds != 0 || req.SeedsMax != 0 || req.RelCIPct != 0 || req.BaseSeed != 0 ||
			len(req.Plans) != 0 || len(req.Workloads) != 0 || len(req.ChaosSeeds) != 0 {
			return req, fmt.Errorf("campaign: trace request carries only experiment, series, x, seed, and faults")
		}
		if _, err := faults.Parse(req.Faults); err != nil {
			return req, err
		}
		req.Faults = strings.TrimSpace(req.Faults)
		cell, err := findCell(req.Experiment, req.Series, req.X)
		if err != nil {
			return req, err
		}
		req.Series, req.X = cell.Series, cell.X
		if req.Seed == 0 {
			req.Seed = 1
		}
	case "":
		return req, fmt.Errorf("campaign: request needs a kind (sweep, chaos, or trace)")
	default:
		return req, fmt.Errorf("campaign: unknown kind %q (want sweep, chaos, or trace)", req.Kind)
	}
	return req, nil
}

// findCell resolves (series, x) to one cell of the experiment. An empty
// series selects the experiment's first cell (ignoring x), matching the
// spsim -trace convention.
func findCell(experiment, series string, x int) (bench.Cell, error) {
	e, err := bench.FindExperiment(experiment)
	if err != nil {
		return bench.Cell{}, err
	}
	if series == "" {
		return e.Cells[0], nil
	}
	for _, c := range e.Cells {
		if c.Series == series && c.X == x {
			return c, nil
		}
	}
	return bench.Cell{}, fmt.Errorf("campaign: experiment %q has no cell (series %q, x %d)", experiment, series, x)
}

// Digest returns the canonical content address of a request under one
// code version: the hex SHA-256 of the canonical key payload. The request
// must already be canonicalized; Digest re-canonicalizes defensively so a
// raw request can never silently address a different cache entry than its
// canonical form.
func Digest(req Request, code string) (string, error) {
	req, err := Canonicalize(req)
	if err != nil {
		return "", err
	}
	pay := keyPayload{
		Schema:     keySchema,
		Code:       code,
		Kind:       req.Kind,
		Experiment: req.Experiment,
		Seeds:      req.Seeds,
		SeedsMax:   req.SeedsMax,
		RelCIPct:   req.RelCIPct,
		BaseSeed:   req.BaseSeed,
		Workloads:  req.Workloads,
		ChaosSeeds: req.ChaosSeeds,
		Series:     req.Series,
		X:          req.X,
		Seed:       req.Seed,
	}
	// Fault-plan specs digest as their parsed plans: the JSON round-trip
	// is the canonical form (omitted selectors default to -1 on the way
	// in, field order is fixed by the struct on the way out), so two
	// spellings of one plan — a preset name, an @file with explicit -1s,
	// an equivalent inline uniform spec — share a digest.
	if req.Kind != Chaos && req.Faults != "" {
		p, err := faults.Parse(req.Faults)
		if err != nil {
			return "", err
		}
		if !p.Empty() {
			pay.Plan = &p
		}
	}
	for _, spec := range req.Plans {
		p, err := faults.Parse(spec)
		if err != nil {
			return "", err
		}
		pay.Plans = append(pay.Plans, p)
	}
	b, err := json.Marshal(pay)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ProgressEvent is one host-side progress report from a running campaign.
type ProgressEvent struct {
	// Cell progress (sweep campaigns): repetition Rep of cell Cell done,
	// Done of Planned repetitions complete.
	Cell    int    `json:"cell,omitempty"`
	Series  string `json:"series,omitempty"`
	X       int    `json:"x,omitempty"`
	Rep     int    `json:"rep,omitempty"`
	Done    int    `json:"done,omitempty"`
	Planned int    `json:"planned,omitempty"`
	// Msg carries free-form progress lines (chaos campaigns).
	Msg string `json:"msg,omitempty"`
}

// Runner executes canonicalized requests into deterministic byte
// artifacts. The execution knobs here are host policy — they shape
// wall-clock cost, never result bytes — which is exactly why they live on
// the runner and not in the request or its digest.
type Runner struct {
	// Git is the code version recorded in artifacts; it must equal the
	// code component of the digests the artifacts are cached under.
	Git string
	// Par bounds the sweep worker pool per campaign (see sweep.Options);
	// zero means the sweep default.
	Par int
}

// Run executes one canonicalized request and returns the artifact bytes:
// sweep/v2 JSON (sweep), chaos/v1 JSON (chaos), or tracelog/v1 Chrome
// trace JSON (trace). The bytes are a pure function of (request, Git) —
// the property the exact cache rests on. Cancellation drains in-flight
// work and returns the context error; a canceled campaign never yields
// partial bytes.
func (r *Runner) Run(ctx context.Context, req Request, progress func(ProgressEvent)) ([]byte, error) {
	switch req.Kind {
	case Sweep:
		e, err := bench.FindExperiment(req.Experiment)
		if err != nil {
			return nil, err
		}
		opts := sweep.Options{
			Seeds: req.Seeds, SeedsMax: req.SeedsMax, RelCIPct: req.RelCIPct,
			BaseSeed: req.BaseSeed, Faults: req.Faults,
			GitDescribe: r.Git, Par: r.Par,
		}
		if progress != nil {
			opts.Progress = func(p sweep.Progress) {
				progress(ProgressEvent{Cell: p.Cell, Series: p.Series, X: p.X, Rep: p.Rep, Done: p.Done, Planned: p.Planned})
			}
		}
		res, err := sweep.RunCtx(ctx, e, opts)
		if err != nil {
			return nil, err
		}
		return sweep.Encode(res)
	case Chaos:
		o := chaos.Options{
			Plans: req.Plans, Seeds: req.ChaosSeeds, Git: r.Git,
		}
		for _, name := range req.Workloads {
			w, err := chaos.WorkloadByName(name)
			if err != nil {
				return nil, err
			}
			o.Workloads = append(o.Workloads, w)
		}
		if progress != nil {
			o.Verbose = func(format string, args ...any) {
				progress(ProgressEvent{Msg: fmt.Sprintf(format, args...)})
			}
		}
		res, err := chaos.RunCtx(ctx, o)
		if err != nil {
			return nil, err
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		return append(data, '\n'), nil
	case Trace:
		cell, err := findCell(req.Experiment, req.Series, req.X)
		if err != nil {
			return nil, err
		}
		plan, err := faults.Parse(req.Faults)
		if err != nil {
			return nil, err
		}
		spec := bench.RunSpec{Seed: req.Seed, Trace: tracelog.New(0)}
		if !plan.Empty() {
			spec.Mod = func(p *machine.Params) { p.Faults = plan }
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cell.Run(spec)
		var buf bytes.Buffer
		if err := tracelog.WriteChrome(&buf, spec.Trace); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("campaign: unknown kind %q", req.Kind)
}

// ExperimentInfo is the registry listing entry the service exposes.
type ExperimentInfo struct {
	ID        string `json:"id"`
	Title     string `json:"title"`
	Unit      string `json:"unit"`
	Direction string `json:"direction"`
	Cells     int    `json:"cells"`
}

// ListExperiments snapshots the bench experiment registry.
func ListExperiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range bench.Experiments() {
		out = append(out, ExperimentInfo{
			ID: e.ID, Title: e.Title, Unit: e.Unit, Direction: string(e.Direction), Cells: len(e.Cells),
		})
	}
	return out
}
