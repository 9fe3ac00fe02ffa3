# Tier-1 verification, as run by CI (.github/workflows/ci.yml).

.PHONY: verify build vet test lint lint-sarif tidy-check bench bench-smoke determinism-check trace-smoke chaos-smoke compare-selfcheck serve-smoke conformance ablate-smoke

verify: build vet test lint tidy-check conformance ablate-smoke

# conformance runs the registry-driven provider suite on its own: every
# registered MPCI provider — native, the three MPI-LAPI designs, and
# rdma — through the shared eager/rendezvous/ordering/mode/fault tests,
# plus the RDMA corrupt-burst zero-copy retry acceptance test. Also part
# of `make test`; the explicit target is the named CI gate.
conformance:
	go test ./internal/mpci -count=1

# ablate-smoke regenerates the copies ablation (including the RDMA
# zero-copy rendezvous series) at one seed and demands point-identity
# with the committed 16-seed artifact: every cell is deterministic and
# seed-invariant on the clean fabric, so one seed reproduces the
# committed medians exactly.
ablate-smoke:
	go run ./cmd/sweep -exp ablate-copies -seeds 1 -o /tmp/BENCH_ablate-copies_smoke.json
	go run ./cmd/sweep -compare BENCH_ablate-copies.json /tmp/BENCH_ablate-copies_smoke.json -tol 0

build:
	go build ./...

vet:
	go vet ./...

test:
	go test -race ./...

# lint runs the determinism-invariant analyzer suite (internal/simlint).
# Exit: 0 clean, 1 findings, 2 load errors, 3 stale allow directives.
lint:
	go run ./cmd/simlint ./...

# lint-sarif is the CI flavor: same gate, plus a SARIF 2.1.0 log for
# annotation/archival tooling.
lint-sarif:
	go run ./cmd/simlint -sarif simlint.sarif ./...

tidy-check:
	go mod tidy -diff

# bench measures the simulator's wall-clock throughput (kernel
# microbenchmarks plus whole-sweep cells) against the committed baseline
# and writes BENCH_walltime.json; schema in EXPERIMENTS.md.
bench:
	go run ./cmd/walltime -rounds 5 -baseline BENCH_walltime_baseline.json -o BENCH_walltime.json

# bench-smoke is the CI bit-rot check (one tiny round, artifact discarded)
# plus the tracing-off overhead gate: with no log attached the hot paths pay
# one nil-check branch, and the gated benchmarks must stay within 2% of the
# committed BENCH_walltime.json on the machine that produced it. On any
# other machine (checked by the recorded host fingerprint) the gate warns
# loudly and demotes itself to report-only — ns/op is not comparable
# across CPUs, and a canary scalar cannot bridge different cost ratios.
bench-smoke:
	go run ./cmd/walltime -smoke -o /tmp/BENCH_walltime_smoke.json
	go run ./cmd/walltime -rounds 5 -gateref BENCH_walltime.json -gate 2

# determinism-check regenerates the fig10 sweep (16 seeds, same knobs as
# the committed artifact) and demands point-identity at zero tolerance:
# performance work on the kernel must never move a virtual-time result.
# The second pass re-sweeps with an event log attached to every cell:
# tracing is observational, so traced results must be identical too.
# The ring pass regenerates the largest committed workload (16 nodes, all
# busy) the same way.
determinism-check:
	go run ./cmd/sweep -exp fig10 -seeds 16 -o /tmp/BENCH_fig10_regen.json
	go run ./cmd/sweep -compare BENCH_fig10.json /tmp/BENCH_fig10_regen.json -tol 0
	go run ./cmd/sweep -exp fig10 -seeds 16 -trace -o /tmp/BENCH_fig10_traced.json
	go run ./cmd/sweep -compare BENCH_fig10.json /tmp/BENCH_fig10_traced.json -tol 0
	go run ./cmd/sweep -exp ring -seeds 16 -o /tmp/BENCH_ring_regen.json
	go run ./cmd/sweep -compare BENCH_ring.json /tmp/BENCH_ring_regen.json -tol 0

# compare-selfcheck runs the regression gate's core soundness property
# over every committed sweep artifact: a result compared against itself at
# zero tolerance must be clean. This is what the old mean-centered CI
# violated (fp summation noise could exclude the median of an all-equal
# sample); the nonparametric gate must never flag a self-comparison.
# The walltime artifacts are a different schema and are deliberately not
# matched by the glob.
compare-selfcheck:
	for f in BENCH_fig1[0-3].json BENCH_ablate-*.json BENCH_ring.json; do \
		go run ./cmd/sweep -compare $$f $$f -tol 0 || exit 1; \
	done

# trace-smoke exercises the tracing triangle in CI: export a trace from the
# smallest fig10 cell, validate the schema tag, require self-comparison to
# report identity (exit 0), and require two fault-injected runs on different
# seeds to diverge (tracediff exit 1 with a first-divergence report).
trace-smoke:
	go run ./cmd/spsim -exp fig10 -trace /tmp/trace_clean.json
	grep -q '"schema":"tracelog/v1"' /tmp/trace_clean.json
	go run ./cmd/tracediff /tmp/trace_clean.json /tmp/trace_clean.json
	go run ./cmd/spsim -exp fig10 -trace /tmp/trace_drop1.json -faults uniform:drop=0.02 -traceseed 1
	go run ./cmd/spsim -exp fig10 -trace /tmp/trace_drop2.json -faults uniform:drop=0.02 -traceseed 2
	go run ./cmd/tracediff /tmp/trace_drop1.json /tmp/trace_drop2.json; test $$? -eq 1

# serve-smoke exercises the spsimd service end to end over real HTTP: a
# small fig10 sweep submitted twice must be a cache miss then an exact
# hit (byte-identical artifact, /metrics hit counter of 1), and the cold
# artifact's medians must match the committed BENCH_fig10.json at zero
# tolerance. The server boots on an ephemeral loopback port with a
# throwaway cache, so the target is hermetic and CI-safe.
serve-smoke:
	go run ./cmd/spsimd -selfsmoke -baseline BENCH_fig10.json > spsimd_selfsmoke.log 2>&1; \
	status=$$?; cat spsimd_selfsmoke.log; exit $$status

# chaos-smoke runs the fault-injection acceptance harness on two scripted
# plans x two seeds x every workload, gating on payload-exact MPI results,
# completion without deadlock, bounded completion-time inflation, and
# bit-identical same-seed reruns. Nonzero exit on any gate failure.
chaos-smoke:
	go run ./cmd/chaos -plans burst-loss,corruptor -seeds 2
