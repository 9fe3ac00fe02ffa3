package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// This file reads the CPU profile the traced run records and attributes
// each sample to a layer of the program. The stacks come from the Go
// toolchain's own reader, `go tool pprof -traces`.

// profSample is one stack of the profile: its frames, innermost first,
// with inlined frames expanded, and its sample count.
type profSample struct {
	Stack []string
	Count int64
}

const repoPrefix = "splapi/internal/"

// layerNames maps a package directory under internal/ to the layer name
// the metrics use; every other package keeps its own name.
var layerNames = map[string]string{"switchnet": "fabric"}

// unattributed names samples with no repository frame on their stack:
// the scheduler on the system stack, GC workers, the benchmark itself.
const unattributed = "unattributed"

// layerOf attributes a stack to the innermost splapi/internal/<pkg> frame
// on it. Runtime and benchmark frames count toward their nearest repo
// caller, so a channel handoff reached from sim.(*Proc) is sim time.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if l, ok := layerNames[pkg]; ok {
			return l
		}
		return pkg
	}
	return unattributed
}

// hostShares returns each layer's share of the profile's samples.
func hostShares(samples []profSample) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOf(s.Stack)] += s.Count
		total += s.Count
	}
	out := make(map[string]float64, len(counts))
	for l, n := range counts {
		out[l] = ratio(float64(n), float64(total))
	}
	return out
}

// profileStacks writes a runtime/pprof CPU profile into dir and reads its
// stacks back with `go tool pprof -traces`, counting samples.
func profileStacks(dir string, profile []byte) ([]profSample, error) {
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(profile)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", f.Name())
	// pprof keeps fetched profiles under PPROF_TMPDIR; keep it in dir.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(string(out))
}

// tracesSeparator opens each stack in `pprof -traces` output.
const tracesSeparator = "-----------+"

// parseTraces reads `pprof -traces -sample_index=samples` output: a
// header, then per stack a separator line and one frame per line,
// innermost first, the first frame led by its sample count in a
// 10-column field.
func parseTraces(text string) ([]profSample, error) {
	var out []profSample
	in := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, tracesSeparator) {
			in = true
			continue
		}
		if !in || strings.TrimSpace(line) == "" {
			continue
		}
		if len(line) < 10 {
			return nil, fmt.Errorf("pprof -traces: malformed line %q", line)
		}
		value := strings.TrimSpace(line[:10])
		if strings.HasSuffix(value, ":") {
			continue // a label line of the stack
		}
		frame := strings.TrimSuffix(strings.TrimSpace(line[10:]), " (inline)")
		if value != "" {
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: sample count %q: %v", value, err)
			}
			out = append(out, profSample{Count: n})
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("pprof -traces: frame %q before any sample count", frame)
		}
		s := &out[len(out)-1]
		s.Stack = append(s.Stack, frame)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pprof -traces: no stacks in output")
	}
	return out, nil
}
