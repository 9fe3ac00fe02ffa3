package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOfSyntheticStacks(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Scheduler handoff reached from a simulated process is sim time.
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "splapi/internal/sim.(*Proc).yield",
			"splapi/internal/sim.(*Proc).Sleep", "splapi/internal/hal.(*HAL).ChargeCPU"}, "sim"},
		// The innermost repo frame wins over its callers.
		{[]string{"runtime.memmove", "splapi/internal/mpci.(*LAPIProvider).copyOut",
			"splapi/internal/mpi.(*World).Recv"}, "mpci"},
		{[]string{"splapi/internal/switchnet.(*Fabric).Inject"}, "fabric"},
		{[]string{"splapi/internal/campaign/queue.(*Queue).worker"}, "campaign"},
		{[]string{"splapi/internal/nas.cgKernel.func1", "main.(*nasWL).batch.func1"}, "nas"},
		// Benchmark frames are not the program: they pass to repo callers.
		{[]string{"main.(*sweepWL).wrap.func1", "splapi/internal/sweep.RunCtx.func1"}, "sweep"},
		{[]string{"runtime.gcBgMarkWorker"}, unattributed},
		{nil, unattributed},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	shares := hostShares([]profSample{
		{Stack: cases[0].stack, Count: 3},
		{Stack: cases[1].stack, Count: 1},
	})
	if shares["sim"] != 0.75 || shares["mpci"] != 0.25 {
		t.Errorf("shares = %v, want sim 0.75 mpci 0.25", shares)
	}
}

//go:noinline
func burnForProfile(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i % 7
		}
	}
	return n
}

func TestProfileStacksReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	burnForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := profileStacks(t.TempDir(), buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burn int64
	for _, s := range samples {
		total += s.Count
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, "burnForProfile") {
				burn += s.Count
				break
			}
		}
	}
	if total == 0 || burn*2 < total {
		t.Errorf("read %d samples, %d in burnForProfile; want most of them there", total, burn)
	}
	if _, err := profileStacks(t.TempDir(), []byte("not a profile")); err == nil {
		t.Error("garbage read without error")
	}
}
