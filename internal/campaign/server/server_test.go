package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"splapi/internal/campaign"
	"splapi/internal/campaign/queue"
	"splapi/internal/sweep"
)

func newTestService(t *testing.T, dir string) *Service {
	t.Helper()
	svc, err := NewService(Config{Git: "test-code", CacheDir: dir, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// submit POSTs a campaign with ?wait=1 and returns status, headers, body.
func submit(t *testing.T, ts *httptest.Server, req campaign.Request) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/campaigns?wait=1", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// metric fetches /metrics and returns the value of one counter line.
func metric(t *testing.T, ts *httptest.Server, name string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (.*)$`).FindSubmatch(data)
	if m == nil {
		t.Fatalf("metric %s missing from:\n%s", name, data)
	}
	return string(m[1])
}

// The acceptance path end to end: the same sweep campaign submitted twice
// returns byte-identical sweep/v2 artifacts, the second from cache (hit
// header, hit counter), and the cold run's medians match the committed
// BENCH_fig10.json baseline exactly (tolerance 0) — clean-fabric
// dispersion is degenerate, so even a 2-seed run reproduces the 16-seed
// committed medians bit for bit.
func TestCacheExactnessEndToEnd(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	req := campaign.Request{Kind: campaign.Sweep, Experiment: "fig10", Seeds: 2}

	cold, coldBody := submit(t, ts, req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-Spsimd-Cache"); got != "miss" {
		t.Fatalf("cold run cache header = %q, want miss", got)
	}

	warm, warmBody := submit(t, ts, req)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %d: %s", warm.StatusCode, warmBody)
	}
	if got := warm.Header.Get("X-Spsimd-Cache"); got != "hit" {
		t.Fatalf("warm run cache header = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("cache hit served different bytes than the cold run")
	}
	if cold.Header.Get("X-Spsimd-Digest") != warm.Header.Get("X-Spsimd-Digest") {
		t.Fatal("digests differ between cold and warm runs")
	}
	if got := metric(t, ts, "spsimd_cache_hits_total"); got != "1" {
		t.Fatalf("spsimd_cache_hits_total = %s, want 1", got)
	}
	if got := metric(t, ts, "spsimd_cache_puts_total"); got != "1" {
		t.Fatalf("spsimd_cache_puts_total = %s, want 1", got)
	}

	// The artifact is a real sweep/v2 result matching the committed
	// baseline's medians at zero tolerance.
	var got sweep.Result
	if err := json.Unmarshal(coldBody, &got); err != nil {
		t.Fatalf("artifact is not a sweep result: %v", err)
	}
	if got.Schema != sweep.SchemaV2 {
		t.Fatalf("artifact schema = %q, want %q", got.Schema, sweep.SchemaV2)
	}
	baseline, err := sweep.Load("../../../BENCH_fig10.json")
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := sweep.Compare(baseline, &got, sweep.CompareOpts{TolPct: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Fatal("comparison matched no points")
	}
	for _, d := range deltas {
		if d.Moved {
			t.Errorf("served %s/x=%d median %v differs from committed baseline %v", d.Series, d.X, d.New, d.Old)
		}
	}

	// The digest-addressed lookup serves the same bytes.
	resp, err := ts.Client().Get(ts.URL + "/v1/results/" + cold.Header.Get("X-Spsimd-Digest"))
	if err != nil {
		t.Fatal(err)
	}
	byDigest, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("results lookup: %d, %v", resp.StatusCode, err)
	}
	if !bytes.Equal(byDigest, coldBody) {
		t.Fatal("digest lookup served different bytes")
	}
}

// SIGTERM semantics at the service layer: a drain cancels the running
// campaign (its in-flight cells finish, its artifact is discarded),
// persists nothing partial, and a restarted service over the same cache
// directory picks the completed entries back up as hits.
func TestGracefulDrainAndRestart(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: drain mid-campaign. Plenty of repetitions so the job is
	// still running when the drain lands.
	svc := newTestService(t, dir)
	j, err := svc.Submit(campaign.Request{Kind: campaign.Sweep, Experiment: "fig10", Seeds: 16})
	if err != nil {
		t.Fatal(err)
	}
	for j.State() == queue.Queued {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if j.State() != queue.Canceled {
		t.Fatalf("drained job state = %s, want canceled", j.State())
	}
	if !strings.Contains(j.Err(), "draining in-flight cells") {
		t.Fatalf("drained job error %q does not describe the drain", j.Err())
	}
	if st := svc.Metrics().Cache; st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("drain persisted a partial artifact: %+v", st)
	}

	// Phase 2: a restarted service completes a small campaign and persists
	// it.
	svc2 := newTestService(t, dir)
	req := campaign.Request{Kind: campaign.Sweep, Experiment: "fig10", Seeds: 2}
	j2, err := svc2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if j2.State() != queue.Done || j2.Cached {
		t.Fatalf("post-restart run: state=%s cached=%v err=%q", j2.State(), j2.Cached, j2.Err())
	}
	body2, _ := j2.Body()
	if err := svc2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Phase 3: another restart resumes from the on-disk cache — the same
	// request is a hit with identical bytes, without running anything.
	svc3 := newTestService(t, dir)
	defer svc3.Drain(context.Background())
	j3, err := svc3.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j3.Done()
	if !j3.Cached {
		t.Fatal("restarted service did not serve from the on-disk cache")
	}
	body3, _ := j3.Body()
	if !bytes.Equal(body2, body3) {
		t.Fatal("cache bytes changed across restart")
	}
}

func TestSubmitRejectsContradictions(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	for name, body := range map[string]string{
		"contradictory seeds": `{"kind":"sweep","experiment":"fig10","seeds":16,"seedsMax":4,"relCIPct":2}`,
		"unknown experiment":  `{"kind":"sweep","experiment":"nope"}`,
		"unknown kind":        `{"kind":"mystery"}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/campaigns?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422", name, resp.StatusCode)
		}
	}
	// Unknown fields are a client error, not silently ignored — a typoed
	// knob must not digest as the default configuration, and a removed
	// one (the engine shard count) must not be accepted and dropped.
	for name, body := range map[string]string{
		"unknown field":  `{"kind":"sweep","experiment":"fig10","sedes":4}`,
		"removed shards": `{"kind":"sweep","experiment":"fig10","shards":2}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// The events endpoint replays the full lifecycle as NDJSON and includes
// per-repetition progress frames from the sweep worker pool.
func TestEventStream(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	data := `{"kind":"sweep","experiment":"ring","seeds":1}`
	resp, err := ts.Client().Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var jv struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + jv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	stream, err := io.ReadAll(resp.Body) // server closes at the terminal state
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	var states []string
	progress := 0
	for i, line := range lines {
		var ev queue.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not an event: %q", i, line)
		}
		if ev.Seq != i {
			t.Fatalf("line %d has seq %d", i, ev.Seq)
		}
		switch ev.Kind {
		case "state":
			states = append(states, string(ev.State))
		case "progress":
			progress++
		}
	}
	if want := fmt.Sprint([]string{"queued", "running", "done"}); fmt.Sprint(states) != want {
		t.Fatalf("state events = %v, want %s", states, want)
	}
	if progress == 0 {
		t.Fatal("no progress frames in the event stream")
	}

	// SSE negotiation: the same stream framed as text/event-stream.
	sseReq, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+jv.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	sseReq.Header.Set("Accept", "text/event-stream")
	resp, err = ts.Client().Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	frames, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(frames), "data: {") {
		t.Fatalf("SSE stream does not frame events: %q", frames[:min(len(frames), 40)])
	}
}

// Two concurrent submissions of one digest share a single job while a
// distinct request gets its own.
func TestSubmitCoalescesInFlight(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Drain(context.Background())

	req := campaign.Request{Kind: campaign.Sweep, Experiment: "fig10", Seeds: 2}
	j1, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical in-flight submissions produced distinct jobs")
	}
	other, err := svc.Submit(campaign.Request{Kind: campaign.Trace, Experiment: "fig10"})
	if err != nil {
		t.Fatal(err)
	}
	if other == j1 {
		t.Fatal("distinct requests coalesced")
	}
	<-j1.Done()
	<-other.Done()
	if j1.State() != queue.Done || other.State() != queue.Done {
		t.Fatalf("states: %s, %s", j1.State(), other.State())
	}
}
