package main

import (
	"strings"
	"testing"
)

// tracedCounts runs one traced batch at a fixed batch index and returns
// its counts.
func tracedCounts(t *testing.T, wl workload, e *env) counts {
	t.Helper()
	if _, err := wl.setup(e); err != nil {
		t.Fatal(err)
	}
	tr := &tracer{rec: newRecorder(), logs: true, cnt: counts{}}
	out := wl.batch(e, tracedFirst, tr)
	if len(out.failures) > 0 {
		t.Fatalf("traced batch failed: %v", out.failures)
	}
	tr.cnt["trace.jobs"] = float64(len(out.cells))
	tr.cnt.finish()
	return tr.cnt
}

// deterministicPrefixes name the per-layer metrics that are pure
// functions of the workload seed: two traced runs at one seed must agree
// on them exactly.
var deterministicPrefixes = []string{
	"fabric.packets", "fabric.bytes_wire", "fabric.reordered", "fabric.dropped",
	"adapter.", "hal.packets_sent", "hal.polls", "hal.corrupt_drops",
	"rdma.", "pipes.data_packets", "pipes.ack_piggyback_ratio", "pipes.retransmits",
	"pipes.timeouts", "pipes.window_stalls", "lapi.msgs", "lapi.retransmits",
	"lapi.timeouts", "lapi.cmpl_", "lapi.window_stalls", "mpci.eager_sends",
	"mpci.rdv_sends", "mpci.unexpected", "mpci.copy_bytes", "mpci.zero_copy_sends",
	"mpci.env_ooo", "mpi.calls", "pool.", "vt.", "trace.jobs", "trace.dropped_events",
}

func deterministic(name string) bool {
	for _, p := range deterministicPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func TestTracedCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two traced batches of two workloads")
	}
	e := &env{root: testRoot, seed: 3, par: 2}
	for name, mk := range map[string]func() workload{
		"sweeps": func() workload { return &sweepWL{ids: []string{"ablate-eager", "ablate-copies"}} },
		"nas":    func() workload { return &nasWL{} },
	} {
		a, b := tracedCounts(t, mk(), e), tracedCounts(t, mk(), e)
		checked := 0
		for _, k := range perLayerNames {
			if !deterministic(k) {
				continue
			}
			checked++
			if a[k] != b[k] {
				t.Errorf("%s: %s = %g then %g", name, k, a[k], b[k])
			}
		}
		if checked == 0 || a["fabric.packets"] == 0 || a["vt.wire_us"] == 0 || a["mpi.calls"] == 0 {
			t.Errorf("%s: traced batch recorded nothing (packets %g, wire %g us, mpi calls %g)",
				name, a["fabric.packets"], a["vt.wire_us"], a["mpi.calls"])
		}
	}
	// The copies ablation includes the RDMA series and the native stack.
	e2 := &env{root: testRoot, seed: 3, par: 2}
	c := tracedCounts(t, &sweepWL{ids: []string{"ablate-copies"}}, e2)
	for _, k := range []string{"rdma.registrations", "pipes.data_packets", "lapi.msgs", "mpci.zero_copy_sends", "mpci.copy_bytes"} {
		if c[k] == 0 {
			t.Errorf("ablate-copies traced batch has %s = 0", k)
		}
	}
}
