package cliconf

import (
	"flag"
	"testing"
)

func newFS() *flag.FlagSet {
	return flag.NewFlagSet("test", flag.ContinueOnError)
}

func TestFaultFlagsDefaultsToCleanFabric(t *testing.T) {
	fs := newFS()
	ff := Faults(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	plan, err := ff.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Empty() {
		t.Fatalf("no flags should mean an empty plan, got %v", plan)
	}
	if ff.Spec() != "" {
		t.Fatalf("Spec() = %q, want empty", ff.Spec())
	}
}

func TestFaultFlagsPreset(t *testing.T) {
	fs := newFS()
	ff := Faults(fs)
	if err := fs.Parse([]string{"-faults", "burst-loss"}); err != nil {
		t.Fatal(err)
	}
	plan, err := ff.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name != "burst-loss" || plan.Empty() {
		t.Fatalf("preset plan = %v", plan)
	}
	if ff.Spec() != "burst-loss" {
		t.Fatalf("Spec = %q", ff.Spec())
	}
}

func TestMachineFlags(t *testing.T) {
	fs := newFS()
	m := Machine(fs)
	if err := fs.Parse([]string{"-machine", "sp160", "-faults", "corruptor"}); err != nil {
		t.Fatal(err)
	}
	p, err := m.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults.Name != "corruptor" {
		t.Fatalf("Params().Faults.Name = %q", p.Faults.Name)
	}
	pp, err := m.PaperParams()
	if err != nil {
		t.Fatal(err)
	}
	if pp.EagerLimit != 78 {
		t.Fatalf("PaperParams().EagerLimit = %d, want 78", pp.EagerLimit)
	}
}

func TestMachineFlagsUnknownPreset(t *testing.T) {
	fs := newFS()
	m := Machine(fs)
	if err := fs.Parse([]string{"-machine", "sp9000"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Params(); err == nil {
		t.Fatal("unknown machine preset must error")
	}
}

func TestSeedDefault(t *testing.T) {
	fs := newFS()
	seed := Seed(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *seed != 1 {
		t.Fatalf("default seed = %d, want 1", *seed)
	}
}

func TestSweepParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    SweepParams
		ok   bool
	}{
		{"zero value", SweepParams{}, true},
		{"plain seeds", SweepParams{Seeds: 16}, true},
		{"stopping rule", SweepParams{Seeds: 4, SeedsMax: 32, RelCIPct: 2}, true},
		{"negative seeds", SweepParams{Seeds: -1}, false},
		{"negative seeds-max", SweepParams{SeedsMax: -4}, false},
		{"negative rel-ci", SweepParams{RelCIPct: -1}, false},
		{"negative par", SweepParams{Par: -2}, false},
		{"seeds-max below seeds", SweepParams{Seeds: 16, SeedsMax: 4, RelCIPct: 2}, false},
		{"seeds-max below default seeds=1 is fine", SweepParams{SeedsMax: 1, RelCIPct: 2}, true},
		{"seeds-max without rel-ci", SweepParams{Seeds: 4, SeedsMax: 32}, false},
		{"rel-ci without seeds-max", SweepParams{Seeds: 4, RelCIPct: 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate(%+v) = %v, want nil", tc.p, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate(%+v) = nil, want error", tc.p)
			}
		})
	}
}

func TestTraceFlags(t *testing.T) {
	fs := newFS()
	tr := Trace(fs, 1<<10)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tr.Enabled() || tr.New() != nil {
		t.Fatal("trace must be disabled by default and New() must return the nil sink")
	}
}
