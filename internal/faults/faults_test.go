package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"splapi/internal/sim"
)

func TestWindowActivity(t *testing.T) {
	ms := sim.Millisecond
	cases := []struct {
		name string
		r    Rule
		t    sim.Time
		want bool
	}{
		{"before-from", Rule{From: 2 * ms, Until: 3 * ms}, 1 * ms, false},
		{"inside", Rule{From: 2 * ms, Until: 3 * ms}, 2 * ms, true},
		{"at-until", Rule{From: 2 * ms, Until: 3 * ms}, 3 * ms, false},
		{"open-ended", Rule{From: 2 * ms}, 100 * ms, true},
		{"open-from-zero", Rule{}, 0, true},
		{"periodic-first", Rule{From: 1 * ms, Until: 2 * ms, Period: 5 * ms}, 1500 * sim.Microsecond, true},
		{"periodic-gap", Rule{From: 1 * ms, Until: 2 * ms, Period: 5 * ms}, 3 * ms, false},
		{"periodic-repeat", Rule{From: 1 * ms, Until: 2 * ms, Period: 5 * ms}, 6500 * sim.Microsecond, true},
		{"periodic-repeat-gap", Rule{From: 1 * ms, Until: 2 * ms, Period: 5 * ms}, 8 * ms, false},
		{"periodic-degenerate", Rule{From: 1 * ms, Period: 5 * ms}, 1 * ms, false},
	}
	for _, c := range cases {
		if got := c.r.activeAt(c.t); got != c.want {
			t.Errorf("%s: activeAt(%v) = %v, want %v", c.name, c.t, got, c.want)
		}
	}
}

func TestWindowEnd(t *testing.T) {
	ms := sim.Millisecond
	r := Rule{From: 1 * ms, Until: 2 * ms, Period: 5 * ms}
	if got := r.windowEnd(1500 * sim.Microsecond); got != 2*ms {
		t.Errorf("windowEnd first period = %v, want 2ms", got)
	}
	if got := r.windowEnd(6500 * sim.Microsecond); got != 7*ms {
		t.Errorf("windowEnd second period = %v, want 7ms", got)
	}
	open := Rule{From: 1 * ms}
	if got := open.windowEnd(5 * ms); got != Forever {
		t.Errorf("open-ended windowEnd = %v, want Forever", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		p, _ := Preset(name)
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Plan
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Errorf("%s: round trip changed the plan:\n  in  %+v\n  out %+v", name, p, back)
		}
	}
}

func TestUnmarshalDefaultsSelectorsToWildcard(t *testing.T) {
	var r Rule
	if err := json.Unmarshal([]byte(`{"kind":"drop","prob":0.1}`), &r); err != nil {
		t.Fatal(err)
	}
	if r.Src != -1 || r.Dst != -1 || r.Route != -1 {
		t.Errorf("omitted selectors = (%d,%d,%d), want all -1", r.Src, r.Dst, r.Route)
	}
	if err := json.Unmarshal([]byte(`{"kind":"stall","dst":0}`), &r); err != nil {
		t.Fatal(err)
	}
	if r.Dst != 0 || r.Src != -1 {
		t.Errorf("explicit dst 0 lost: src=%d dst=%d", r.Src, r.Dst)
	}
}

func TestParse(t *testing.T) {
	for _, spec := range []string{"", "none"} {
		p, err := Parse(spec)
		if err != nil || !p.Empty() {
			t.Errorf("Parse(%q) = %+v, %v; want empty plan", spec, p, err)
		}
	}

	p, err := Parse("uniform:drop=0.01,dup=0.005")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, Uniform(0.01, 0.005)) {
		t.Errorf("uniform spec != Uniform shim: %+v", p)
	}

	if _, err := Parse("uniform:drop=1.5"); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := Parse("uniform:bogus=0.1"); err == nil {
		t.Error("unknown uniform key accepted")
	}
	if _, err := Parse("no-such-preset"); err == nil {
		t.Error("unknown preset accepted")
	}

	for _, name := range PresetNames() {
		p, err := Parse(name)
		if err != nil || p.Empty() {
			t.Errorf("Parse(%q) = %+v, %v", name, p, err)
		}
	}

	want, _ := Preset("burst-loss")
	data, _ := json.Marshal(want)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Parse("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("@file plan differs:\n  got  %+v\n  want %+v", got, want)
	}
}

func TestInjectorNilFastPath(t *testing.T) {
	if in := NewInjector(sim.NewEngine(1), Plan{}); in != nil {
		t.Fatal("empty plan compiled to a non-nil injector")
	}
	var in *Injector
	if in.Drop(0, 0, 1) || in.Dup(0, 0, 1) || in.Corrupt(0, 0, 1) ||
		in.MayCorrupt() || in.MasksRoutes() || in.RouteDown(0, 0, 1, 0) ||
		in.StallUntil(0, 0) != 0 || in.CorruptBytes([]byte{1}) != -1 {
		t.Fatal("nil injector injected something")
	}
}

// TestUniformDrawOrder locks the compat contract: a Uniform plan draws
// exactly one variate for drop and one for dup per packet, in that
// order, matching the original flat drop/dup-probability fabric.
func TestUniformDrawOrder(t *testing.T) {
	const seed, n = 7, 200
	eng := sim.NewEngine(seed)
	in := NewInjector(eng, Uniform(0.3, 0.2))
	var got []bool
	for i := 0; i < n; i++ {
		got = append(got, in.Drop(0, 0, 1), in.Dup(0, 0, 1))
	}

	ref := sim.NewEngine(seed)
	var want []bool
	for i := 0; i < n; i++ {
		want = append(want, ref.Rand().Float64() < 0.3, ref.Rand().Float64() < 0.2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("uniform injector consumed the RNG stream differently from the original flat drop/dup-probability fabric")
	}
}

func TestScriptedKindsConsumeNoRandomness(t *testing.T) {
	eng := sim.NewEngine(3)
	plan, _ := Preset("flappy-route")
	st, _ := Preset("stalled-adapter")
	plan.Rules = append(append([]Rule{}, plan.Rules...), st.Rules...)
	in := NewInjector(eng, plan)
	for t0 := sim.Time(0); t0 < 20*sim.Millisecond; t0 += 137 * sim.Microsecond {
		for r := 0; r < 4; r++ {
			in.RouteDown(t0, 0, 1, r)
		}
		in.StallUntil(t0, 1)
	}
	ref := sim.NewEngine(3)
	if eng.Rand().Int63() != ref.Rand().Int63() {
		t.Fatal("scripted rules consumed engine randomness")
	}
}

func TestRouteDownAndStallWindows(t *testing.T) {
	eng := sim.NewEngine(1)
	plan, _ := Preset("flappy-route")
	in := NewInjector(eng, plan)
	// Route 1 is down during [0.5ms, 4.5ms) every 8ms.
	if !in.RouteDown(1*sim.Millisecond, 0, 1, 1) {
		t.Error("route 1 should be down at 1ms")
	}
	if in.RouteDown(5*sim.Millisecond, 0, 1, 1) {
		t.Error("route 1 should be up at 5ms")
	}
	if in.RouteDown(1*sim.Millisecond, 0, 1, 3) {
		t.Error("route 3 is never down in flappy-route")
	}

	st, _ := Preset("stalled-adapter")
	sin := NewInjector(eng, st)
	// Node 1 stalls during [1ms, 2.2ms) every 9ms.
	if end := sin.StallUntil(1500*sim.Microsecond, 1); end != 2200*sim.Microsecond {
		t.Errorf("node 1 stall end = %v, want 2.2ms", end)
	}
	if end := sin.StallUntil(1500*sim.Microsecond, 2); end != 0 {
		t.Errorf("node 2 is not scripted to stall, got end %v", end)
	}
	if end := sin.StallUntil(3*sim.Millisecond, 1); end != 0 {
		t.Errorf("node 1 stall should have ended by 3ms, got %v", end)
	}
}

func TestCorruptBytesFlipsInPlace(t *testing.T) {
	eng := sim.NewEngine(1)
	in := NewInjector(eng, uniformPlan(0, 0, 0.5))
	b := []byte{0, 0, 0, 0}
	i := in.CorruptBytes(b)
	if i < 0 || i >= len(b) {
		t.Fatalf("bad index %d", i)
	}
	if b[i] != 0xA5 {
		t.Fatalf("byte %d = %#x, want flipped 0xA5", i, b[i])
	}
}
