package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"splapi/internal/faults"
)

const testCode = "v1.2.3-g0123abc"

func mustDigest(t *testing.T, req Request) string {
	t.Helper()
	d, err := Digest(req, testCode)
	if err != nil {
		t.Fatalf("Digest(%+v) = %v", req, err)
	}
	return d
}

// planFile writes a plan as JSON and returns the @file spec for it.
func planFile(t *testing.T, name string, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return "@" + path
}

// Two fault-plan spellings that parse to semantically equal plans after
// the JSON round-trip must produce the same digest: the cache is
// addressed by what the fabric will do, not by how the request spelled
// it. The @file plan below omits the selector fields (they default to
// -1 = match anything) while the preset spells them out.
func TestDigestCanonicalizesFaultPlans(t *testing.T) {
	preset, ok := faults.Preset("burst-loss")
	if !ok {
		t.Fatal("preset burst-loss missing")
	}
	data, err := json.Marshal(preset)
	if err != nil {
		t.Fatal(err)
	}
	base := Request{Kind: Sweep, Experiment: "fig10", Seeds: 2}

	viaPreset := base
	viaPreset.Faults = "burst-loss"
	viaFile := base
	viaFile.Faults = planFile(t, "burst.json", string(data))

	if d1, d2 := mustDigest(t, viaPreset), mustDigest(t, viaFile); d1 != d2 {
		t.Fatalf("preset and round-tripped @file plan digests differ:\n  %s\n  %s", d1, d2)
	}
}

// A plan whose rules omit the selector fields must digest identically to
// one that writes the -1 defaults out: UnmarshalJSON canonicalizes both
// to the same Plan value.
func TestDigestOmittedSelectorsEqualExplicit(t *testing.T) {
	implicit := planFile(t, "implicit.json",
		`{"name":"p","rules":[{"kind":"drop","prob":0.5}]}`)
	explicit := planFile(t, "explicit.json",
		`{"name":"p","rules":[{"kind":"drop","prob":0.5,"src":-1,"dst":-1,"route":-1}]}`)
	base := Request{Kind: Sweep, Experiment: "fig10", Seeds: 2}
	a, b := base, base
	a.Faults, b.Faults = implicit, explicit
	if d1, d2 := mustDigest(t, a), mustDigest(t, b); d1 != d2 {
		t.Fatalf("omitted-selector and explicit-selector plans digest differently:\n  %s\n  %s", d1, d2)
	}
}

// Default spellings normalize: an omitted seeds/baseSeed field is
// the same request as the explicit default.
func TestDigestNormalizesDefaults(t *testing.T) {
	implicit := Request{Kind: Sweep, Experiment: "fig10"}
	explicit := Request{Kind: Sweep, Experiment: "fig10", Seeds: 1, BaseSeed: 1}
	if d1, d2 := mustDigest(t, implicit), mustDigest(t, explicit); d1 != d2 {
		t.Fatalf("default and explicit-default requests digest differently:\n  %s\n  %s", d1, d2)
	}
	if d1, d2 := mustDigest(t, Request{Kind: Chaos}),
		mustDigest(t, Request{Kind: Chaos, Plans: faults.PresetNames(), ChaosSeeds: []int64{1, 2},
			Workloads: []string{"pingpong-enhanced", "ring-native", "nas-cg"}}); d1 != d2 {
		t.Fatalf("default and explicit chaos requests digest differently:\n  %s\n  %s", d1, d2)
	}
}

// Every single-field perturbation must change the digest: if any of
// these collided, the cache would serve one configuration's results for
// another's.
func TestDigestPerturbationSensitivity(t *testing.T) {
	base := Request{Kind: Sweep, Experiment: "fig10", Seeds: 4, BaseSeed: 1, Faults: "burst-loss"}
	d0 := mustDigest(t, base)

	perturb := map[string]Request{}
	r := base
	r.Experiment = "fig11"
	perturb["experiment"] = r
	r = base
	r.Seeds = 5
	perturb["seeds"] = r
	r = base
	r.SeedsMax, r.RelCIPct = 8, 2
	perturb["stopping rule"] = r
	r = base
	r.BaseSeed = 2
	perturb["base seed"] = r
	r = base
	r.Faults = "corruptor"
	perturb["fault plan"] = r
	r = base
	r.Faults = "uniform:drop=0.001"
	perturb["uniform plan"] = r
	r = base
	r.Faults = ""
	perturb["clean fabric"] = r

	// A drop-burst perturbation inside an @file plan: same rule, longer
	// burst window.
	shortBurst, err := json.Marshal(faults.Plan{Name: "b", Rules: []faults.Rule{
		{Kind: faults.Drop, From: 0, Until: 1000, Period: 2000, Src: -1, Dst: -1, Route: -1, Prob: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	longBurst, err := json.Marshal(faults.Plan{Name: "b", Rules: []faults.Rule{
		{Kind: faults.Drop, From: 0, Until: 1500, Period: 2000, Src: -1, Dst: -1, Route: -1, Prob: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	r = base
	r.Faults = planFile(t, "short.json", string(shortBurst))
	perturb["short burst"] = r
	rb := base
	rb.Faults = planFile(t, "long.json", string(longBurst))
	perturb["long burst"] = rb

	seen := map[string]string{"": "base"}
	_ = d0
	seen[d0] = "base"
	for name, req := range perturb {
		d := mustDigest(t, req)
		if prev, dup := seen[d]; dup {
			t.Errorf("digest collision: %q and %q share %s", name, prev, d)
		}
		seen[d] = name
	}

	// The code version is part of the address: the same request on new
	// code must miss the old entry.
	d2, err := Digest(base, testCode+"-dirty")
	if err != nil {
		t.Fatal(err)
	}
	if d2 == d0 {
		t.Error("git describe perturbation did not change the digest")
	}

	// Trace campaigns: seed and cell selection are part of the address.
	tr := Request{Kind: Trace, Experiment: "fig10", Seed: 1}
	trd := mustDigest(t, tr)
	tr2 := tr
	tr2.Seed = 2
	if mustDigest(t, tr2) == trd {
		t.Error("trace seed perturbation did not change the digest")
	}
	tr3 := Request{Kind: Trace, Experiment: "fig10", Series: "RAW LAPI", X: 4}
	if mustDigest(t, tr3) == trd {
		t.Error("trace cell perturbation did not change the digest")
	}
}

// Kinds must never collide even when their distinguishing fields are
// defaults.
func TestDigestKindsDisjoint(t *testing.T) {
	ds := map[string]string{}
	for _, req := range []Request{
		{Kind: Sweep, Experiment: "fig10"},
		{Kind: Trace, Experiment: "fig10"},
		{Kind: Chaos},
	} {
		d := mustDigest(t, req)
		if prev, dup := ds[d]; dup {
			t.Fatalf("kind %q collides with %q", req.Kind, prev)
		}
		ds[d] = string(req.Kind)
	}
}

func TestCanonicalizeRejectsContradictions(t *testing.T) {
	bad := []Request{
		{},
		{Kind: "mystery"},
		{Kind: Sweep},
		{Kind: Sweep, Experiment: "no-such-exp"},
		{Kind: Sweep, Experiment: "fig10", Seeds: 16, SeedsMax: 4, RelCIPct: 2},
		{Kind: Sweep, Experiment: "fig10", SeedsMax: 32},
		{Kind: Sweep, Experiment: "fig10", Faults: "no-such-plan"},
		{Kind: Sweep, Experiment: "fig10", Plans: []string{"burst-loss"}},
		{Kind: Sweep, Experiment: "fig10", Series: "RAW LAPI"},
		{Kind: Chaos, Experiment: "fig10"},
		{Kind: Chaos, Plans: []string{"none"}},
		{Kind: Chaos, Workloads: []string{"no-such-workload"}},
		{Kind: Trace},
		{Kind: Trace, Experiment: "fig10", Series: "no-such-series", X: 1},
		{Kind: Trace, Experiment: "fig10", Seeds: 4},
	}
	for _, req := range bad {
		if _, err := Canonicalize(req); err == nil {
			t.Errorf("Canonicalize(%+v) accepted a contradictory request", req)
		}
	}
}
