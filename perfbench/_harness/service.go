package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"splapi/internal/campaign"
	"splapi/internal/chaos"
	"splapi/internal/sweep"
)

// serviceWL drives the built spsimd binary over HTTP. GOMAXPROCS clients,
// each on its own keep-alive loopback connection, take requests from the
// round in a closed loop: a client sends its next request only once the
// previous one has its full result. Each request is a fresh small
// campaign, submitted twice in a row by one client: a cache miss, then a
// cache hit.
type serviceWL struct {
	proc    *spsimdProc
	clients []*http.Client
	warm    []campaign.Request // the warm-up round: what the hit sample repeats
	bodies  map[string][]byte  // first-miss body of every warm-up request
	served  int                // measured rounds served
	rss     float64            // spsimd's peak RSS after rssRounds rounds
}

func reqKey(r campaign.Request) string { return mustJSON(r) }

// The round mix. A round asks for the fresh small campaigns spsimd
// serves that are cheap to keep: per fault preset, one faulted sweep and
// one single-run chaos campaign. Each is submitted twice in a row, a miss
// and then a byte-identical hit, as `make serve-smoke` submits its
// request. The repository records no real traffic, so this 1:1
// hit-to-miss ratio is an assumption taken from that smoke test, not a
// measured mix. Trace campaigns, the third kind the repository README's
// "Service mode" section names, are left out: their artifacts are about
// 1 MB each, and spsimd keeps every job's body in memory, hits included,
// so they would grow it by tens of MB a second. Every round has the same
// composition, so runs at different seeds measure the same work. Only
// combinations the simulator completes on are used (see
// perfbench/README.md, "Known defects"): no corruptor plan, and no sweep
// of an experiment with a cell that hangs under a preset.
var (
	faultPresets   = []string{"burst-loss", "stalled-adapter", "flappy-route"}
	chaosWorkloads = []string{"pingpong-enhanced", "ring-native"}
)

const (
	sweepExperiment = "ablate-eager"
	// warmRound is the batch index of the warm-up round.
	warmRound = -1
	// hitSampleSize is how many cache hits the hit-latency sample sends,
	// so that its p90 rests on at least ten samples beyond it.
	hitSampleSize = 200
)

// genRound returns the campaigns of one round in a seeded order, a pure
// function of (seed, round). Each carries seeds drawn from the round's
// generator, so every round asks for new work.
func genRound(seed int64, round int) []campaign.Request {
	rng := rand.New(rand.NewSource(batchSeed(seed, round)))
	var reqs []campaign.Request
	for i, p := range faultPresets {
		reqs = append(reqs,
			campaign.Request{
				Kind: campaign.Sweep, Experiment: sweepExperiment, Faults: p,
				Seeds: 1, BaseSeed: rng.Int63n(1<<40) + 1,
			},
			campaign.Request{
				Kind: campaign.Chaos, Plans: []string{p},
				Workloads:  []string{chaosWorkloads[(round+i)&1]},
				ChaosSeeds: []int64{rng.Int63n(1<<30) + 1},
			})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// hitRequests returns the hit sample's requests: the warm-up round's,
// repeated to n in a seeded order.
func hitRequests(seed int64, warm []campaign.Request, n int) []campaign.Request {
	rng := rand.New(rand.NewSource(batchSeed(seed, warmRound-1)))
	reqs := make([]campaign.Request, n)
	for i := range reqs {
		reqs[i] = warm[rng.Intn(len(warm))]
	}
	return reqs
}

// setup starts a fresh spsimd on a fresh cache directory, stopping the
// one an earlier setup left; it times spawn until /healthz answers 200.
func (w *serviceWL) setup(e *env) (time.Duration, error) {
	if w.proc != nil {
		if err := w.proc.stop(); err != nil {
			return 0, err
		}
		w.proc = nil
	}
	dir, err := os.MkdirTemp(e.work, "spsimd-cache-")
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	p, err := startSpsimd(e.spsimd, dir, runtime.NumCPU())
	d := time.Since(t0)
	if err != nil {
		os.RemoveAll(dir)
		return 0, err
	}
	w.proc = p
	return d, nil
}

// prepare makes the clients and runs the warm-up round, whose first-miss
// bodies the hit sample is checked against.
func (w *serviceWL) prepare(e *env) error {
	w.clients = nil
	for i := 0; i < runtime.NumCPU(); i++ {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	w.warm = genRound(e.seed, warmRound)
	w.bodies = map[string][]byte{}
	out := w.run(w.warm, nil, func(r campaign.Request, body []byte) { w.bodies[reqKey(r)] = body })
	if len(out.failures) > 0 {
		return fmt.Errorf("warm-up round: %s", out.failures[0])
	}
	return nil
}

// rssRounds is how many measured rounds spsimd has served when its peak
// RSS is read; every timed service run measures at least that many
// (minRounds). spsimd keeps every job it has run in memory, so its RSS
// grows with the requests served; reading it after a fixed amount of work
// keeps a faster server, which serves more rounds in the same time, from
// reading as a bigger one. Twenty rounds take a few seconds; after only a
// few, the reading still depends on where the garbage collector is in
// its cycle.
const rssRounds = 20

func (w *serviceWL) minRounds() int { return rssRounds }

func (w *serviceWL) batch(e *env, b int, tr *tracer) batchOut {
	out := w.run(genRound(e.seed, b), tr, nil)
	if w.served++; w.served == rssRounds {
		w.rss = w.proc.peakRSSMB()
	}
	return out
}

// run sends each campaign of a round through the clients as a miss and
// then a hit, and checks every response. keep, when non-nil, receives
// each campaign's first-miss body.
func (w *serviceWL) run(reqs []campaign.Request, tr *tracer, keep func(campaign.Request, []byte)) batchOut {
	return w.send(reqs, func(c *http.Client, r campaign.Request, out *batchOut, mu *sync.Mutex) {
		miss := w.do(c, r, tr)
		mu.Lock()
		ok := w.account(out, r, miss, nil, tr)
		if ok && keep != nil {
			keep(r, miss.body)
		}
		mu.Unlock()
		if !ok {
			return
		}
		hit := w.do(c, r, tr)
		mu.Lock()
		w.account(out, r, hit, miss.body, tr)
		mu.Unlock()
	})
}

// hitSample sends hitSampleSize repeats of warm-up campaigns, all cache
// hits, and checks each against its first miss. It measures hit latency
// apart from the rounds, so the round mix need not be tilted towards hits
// to give the hit percentiles enough samples.
func (w *serviceWL) hitSample(e *env) batchOut {
	return w.send(hitRequests(e.seed, w.warm, hitSampleSize), func(c *http.Client, r campaign.Request, out *batchOut, mu *sync.Mutex) {
		o := w.do(c, r, nil)
		mu.Lock()
		w.account(out, r, o, w.bodies[reqKey(r)], nil)
		mu.Unlock()
	})
}

// send hands each request to the next free client, which runs one on it,
// and returns what the requests recorded, with the makespan as wall.
func (w *serviceWL) send(reqs []campaign.Request, one func(*http.Client, campaign.Request, *batchOut, *sync.Mutex)) batchOut {
	var (
		out  batchOut
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan campaign.Request)
	)
	t0 := time.Now()
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for r := range next {
				one(c, r, &out, &mu)
			}
		}(c)
	}
	for _, r := range reqs {
		next <- r
	}
	close(next)
	wg.Wait()
	out.wall = time.Since(t0)
	return out
}

// reqOut is what one request observed.
type reqOut struct {
	total, queued, running time.Duration
	cached                 bool
	truncated              bool // the event stream ended before the final state
	body                   []byte
	err                    error
}

// account checks one response and adds its timings. firstMiss is nil for
// a miss, and for a hit the body of the same campaign's first miss. It
// reports whether the response passed.
func (w *serviceWL) account(out *batchOut, r campaign.Request, o reqOut, firstMiss []byte, tr *tracer) bool {
	out.requests++
	if o.truncated {
		out.truncated++
	}
	err := o.err
	if err == nil {
		err = verify(r, o, firstMiss)
	}
	out.check(err == nil, "%s: %v", reqKey(r), err)
	if err != nil {
		return false
	}
	if firstMiss != nil {
		out.hits = append(out.hits, ms(o.total))
		return true
	}
	out.cells = append(out.cells, ms(o.total))
	out.queueWait = append(out.queueWait, ms(o.queued))
	out.runMs = append(out.runMs, ms(o.running))
	tr.fold(func(c counts) { foldBody(c, r, o.body) })
	return true
}

// verify checks a response: a hit must come from the cache and equal its
// first miss byte for byte; a chaos campaign must pass every gate; a
// sweep must carry every cell of its experiment.
func verify(r campaign.Request, o reqOut, firstMiss []byte) error {
	if firstMiss != nil {
		if !o.cached {
			return errors.New("repeat request was not served from the cache")
		}
		if !bytes.Equal(o.body, firstMiss) {
			return fmt.Errorf("hit body (%d bytes) differs from its first miss (%d bytes)", len(o.body), len(firstMiss))
		}
		return nil
	}
	switch r.Kind {
	case campaign.Chaos:
		var res chaos.Result
		if err := json.Unmarshal(o.body, &res); err != nil {
			return err
		}
		if !res.Pass || len(res.Plans) == 0 {
			return fmt.Errorf("chaos campaign failed a gate: %s", o.body)
		}
		for _, p := range res.Plans {
			if !p.Pass || len(p.Runs) == 0 {
				return fmt.Errorf("chaos plan %s failed a gate", p.Plan)
			}
		}
	case campaign.Sweep:
		var res sweep.Result
		if err := json.Unmarshal(o.body, &res); err != nil {
			return err
		}
		cells := 0
		for _, x := range campaign.ListExperiments() {
			if x.ID == r.Experiment {
				cells = x.Cells
			}
		}
		if res.Experiment != r.Experiment || len(res.Points) != cells || cells == 0 {
			return fmt.Errorf("sweep artifact has %d points of %q, want %d of %q",
				len(res.Points), res.Experiment, cells, r.Experiment)
		}
	}
	return nil
}

// foldBody adds the layer counters a missed campaign's artifact records.
func foldBody(c counts, r campaign.Request, body []byte) {
	switch r.Kind {
	case campaign.Chaos:
		var res chaos.Result
		if json.Unmarshal(body, &res) == nil {
			c.foldChaos(&res)
		}
	case campaign.Sweep:
		var res sweep.Result
		if json.Unmarshal(body, &res) == nil {
			c.foldServed(&res)
		}
	}
}

// reqTimeout bounds one request end to end; a request that runs out
// counts as failed.
const reqTimeout = 60 * time.Second

// do submits one request, follows its job's NDJSON event stream until the
// job settles (misses), and fetches the artifact. Spans: the request,
// and under it the job's queued and running phases.
func (w *serviceWL) do(c *http.Client, r campaign.Request, tr *tracer) reqOut {
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	var o reqOut
	sp := tr.begin(tr.rootSpan(), "http.request")
	defer tr.end(sp)
	t0 := time.Now()
	var view struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if o.err = w.call(ctx, c, http.MethodPost, "/v1/campaigns", []byte(reqKey(r)), http.StatusAccepted, func(b io.Reader) error {
		return json.NewDecoder(b).Decode(&view)
	}); o.err != nil {
		return o
	}
	o.cached = view.Cached
	if !view.Cached {
		var tRun, tEnd time.Time
		final := ""
		o.err = w.call(ctx, c, http.MethodGet, "/v1/jobs/"+view.ID+"/events", nil, http.StatusOK, func(b io.Reader) error {
			sc := bufio.NewScanner(b)
			sc.Buffer(make([]byte, 64<<10), 4<<20)
			for sc.Scan() {
				var ev struct {
					State string `json:"state"`
					Err   string `json:"err"`
				}
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					return err
				}
				switch ev.State {
				case "running":
					tRun = time.Now()
				case "done", "failed", "canceled":
					tEnd, final = time.Now(), ev.State
					if ev.Err != "" {
						return fmt.Errorf("job %s: %s", ev.State, ev.Err)
					}
				}
			}
			return sc.Err()
		})
		if o.err == nil && final == "" {
			// spsimd's event stream can end without the job's final state
			// event: the handler reads the (not yet appended) events, then
			// sees the state already terminal and returns. The job status
			// is authoritative; the truncation is counted and reported.
			o.truncated = true
			tEnd = time.Now()
			var st struct {
				State string `json:"state"`
			}
			o.err = w.call(ctx, c, http.MethodGet, "/v1/jobs/"+view.ID, nil, http.StatusOK, func(b io.Reader) error {
				return json.NewDecoder(b).Decode(&st)
			})
			final = st.State
		}
		if o.err == nil && final != "done" {
			o.err = fmt.Errorf("job %s ended %q", view.ID, final)
		}
		if o.err != nil {
			return o
		}
		if tRun.IsZero() {
			tRun = tEnd
		}
		o.queued, o.running = tRun.Sub(t0), tEnd.Sub(tRun)
		tr.add(sp, "job.queued", t0, tRun)
		tr.add(sp, "job.running", tRun, tEnd)
	}
	o.err = w.call(ctx, c, http.MethodGet, "/v1/jobs/"+view.ID+"/result", nil, http.StatusOK, func(b io.Reader) error {
		var err error
		o.body, err = io.ReadAll(b)
		return err
	})
	o.total = time.Since(t0)
	return o
}

// call makes one HTTP call, demands the status, hands the body to read,
// and drains it so the keep-alive connection is reused.
func (w *serviceWL) call(ctx context.Context, c *http.Client, method, path string, body []byte, status int, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.proc.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// serviceCounts reads spsimd's /metrics: the cache hit ratio and the
// number of submissions coalesced onto an in-flight job.
func (w *serviceWL) serviceCounts() (counts, error) {
	c := counts{}
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	var text []byte
	err := w.call(ctx, w.clients[0], http.MethodGet, "/metrics", nil, http.StatusOK, func(b io.Reader) error {
		var err error
		text, err = io.ReadAll(b)
		return err
	})
	if err != nil {
		return c, err
	}
	for name, metric := range map[string]string{
		"campaign.cache_hit_ratio": "spsimd_cache_hit_ratio",
		"campaign.coalesced":       "spsimd_jobs_coalesced_total",
	} {
		m := regexp.MustCompile(`(?m)^` + metric + ` (\S+)$`).FindSubmatch(text)
		if m == nil {
			return c, fmt.Errorf("/metrics has no %s", metric)
		}
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			return c, err
		}
		c[name] = v
	}
	return c, nil
}

func (w *serviceWL) rssMB() float64 { return w.rss }

func (w *serviceWL) close() {
	if w.proc != nil {
		if err := w.proc.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping spsimd:", err)
		}
		w.proc = nil
	}
}

// spsimdProc is one running spsimd.
type spsimdProc struct {
	cmd     *exec.Cmd
	base    string
	dir     string
	drained chan struct{} // closed once stdout reaches EOF
}

var servingRE = regexp.MustCompile(`serving on (http://\S+)`)

// startSpsimd spawns spsimd on a free loopback port with jobs campaign
// slots of one sweep worker each, and waits for /healthz to answer 200.
func startSpsimd(bin, dir string, jobs int) (*spsimdProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache", dir,
		"-jobs", strconv.Itoa(jobs), "-par", "1")
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping it, spsimd dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &spsimdProc{cmd: cmd, dir: dir, drained: make(chan struct{})}
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	m := servingRE.FindStringSubmatch(line)
	go func() {
		defer close(p.drained)
		io.Copy(io.Discard, rd) // spsimd logs a line or two; keep its pipe empty
	}()
	if err != nil || m == nil {
		p.stop()
		return nil, fmt.Errorf("spsimd did not report its address (read %q): %v", line, err)
	}
	p.base = strings.TrimSuffix(m[1], "/")
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("spsimd /healthz not ready after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func (p *spsimdProc) peakRSSMB() float64 {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stop drains spsimd with SIGTERM (killing it after 30s), waits for it
// and its output to end, and removes its cache directory.
func (p *spsimdProc) stop() error {
	defer os.RemoveAll(p.dir)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-p.drained: // spsimd closes its output as it exits
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.drained
	}
	return p.cmd.Wait()
}
