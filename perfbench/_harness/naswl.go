package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"splapi/internal/bench"
	"splapi/internal/cluster"
	"splapi/internal/machine"
	"splapi/internal/nas"
	"splapi/internal/tracelog"
)

// nasWL runs the Section 6.2 table: the 8 NAS kernels on the native and
// MPI-LAPI Enhanced stacks, 4 nodes each, on a pool of GOMAXPROCS
// workers. The batch seed permutes the job order and is the simulation
// seed. Every job must verify its checksum and reproduce the committed
// virtual time of results_all.txt to the printed 0.01 ms.
type nasWL struct {
	kernels []nas.Kernel
	params  machine.Params
}

// nasStacks are the table's two columns, in results_all.txt order.
var nasStacks = []cluster.Stack{cluster.Native, cluster.LAPIEnhanced}

const goldenFile = "results_all.txt"

// setup builds the job list, loads the golden table, and runs one untimed
// warm-up kernel.
func (w *nasWL) setup(e *env) (time.Duration, error) {
	t0 := time.Now()
	if _, err := loadGolden(e.root); err != nil {
		return 0, err
	}
	w.kernels = nas.Suite()
	// The paper's settings, as bench's own NAS table uses them.
	w.params = machine.SP332()
	w.params.EagerLimit = 78
	r := bench.RunNASKernelOpts(w.kernels[0], nasStacks[0], w.params, 1, nil)
	if !r.Verified {
		return 0, fmt.Errorf("warm-up kernel %s did not verify", r.Name)
	}
	return time.Since(t0), nil
}

func (w *nasWL) prepare(*env) error { return nil }

// loadGolden reads the NAS table of results_all.txt: kernel -> the
// native and MPI-LAPI virtual times in ms, as printed.
func loadGolden(root string) (map[string][2]string, error) {
	f, err := os.Open(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][2]string{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "NAS Parallel Benchmarks") {
			in = true
			continue
		}
		if !in {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) == 0 {
			break
		}
		if len(fs) >= 3 && fs[0] != "bench" {
			out[fs[0]] = [2]string{fs[1], fs[2]}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no NAS table", goldenFile)
	}
	return out, nil
}

type nasJob struct {
	k     nas.Kernel
	stack int // index into nasStacks
}

// batch runs the 16 jobs in a seeded order on the worker pool, timing
// each kernel call and checking its result.
func (w *nasWL) batch(e *env, b int, tr *tracer) batchOut {
	seed := batchSeed(e.seed, b)
	var jobs []nasJob
	for _, k := range w.kernels {
		for s := range nasStacks {
			jobs = append(jobs, nasJob{k, s})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	var (
		out  batchOut
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan nasJob)
	)
	t0 := time.Now()
	for i := 0; i < e.par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				sp := tr.begin(tr.rootSpan(), "nas.kernel")
				tl := tr.newLog()
				s := time.Now()
				r := bench.RunNASKernelOpts(j.k, nasStacks[j.stack], w.params, seed, tl)
				d := time.Since(s)
				if tl != nil {
					tl = complete(tl, func(l *tracelog.Log) {
						bench.RunNASKernelOpts(j.k, nasStacks[j.stack], w.params, seed, l)
					})
				}
				tr.end(sp)
				err := checkNAS(e.root, j, r)
				tr.fold(func(c counts) {
					if tl != nil {
						c.foldEvents(tl, false)
					}
				})
				mu.Lock()
				out.cells = append(out.cells, ms(d))
				out.check(err == nil, "%s on %s, batch %d: %v", j.k.Name, nasStacks[j.stack], b, err)
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	out.wall = time.Since(t0)
	return out
}

// checkNAS demands a verified checksum and the golden virtual time.
func checkNAS(root string, j nasJob, r bench.NASResult) error {
	if !r.Verified {
		return fmt.Errorf("checksum %g did not verify", r.Checksum)
	}
	golden, err := loadGolden(root)
	if err != nil {
		return err
	}
	want, ok := golden[j.k.Name]
	if !ok {
		return fmt.Errorf("no golden row for %s", j.k.Name)
	}
	if got := fmt.Sprintf("%.2f", float64(r.Time)/1e6); got != want[j.stack] {
		return fmt.Errorf("virtual time %s ms, golden %s ms", got, want[j.stack])
	}
	return nil
}

func (w *nasWL) rssMB() float64 { return selfRSSMB() }
func (w *nasWL) close()         {}
