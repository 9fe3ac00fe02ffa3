// Package server composes the campaign layers into the spsimd service: a
// Service that routes requests through the content-addressed cache and
// the job queue, and an HTTP handler exposing submission, job lifecycle,
// progress streaming (NDJSON or SSE), cached-result lookup, and a
// plaintext metrics endpoint.
//
// The flow per submission is: canonicalize → digest → cache probe. A hit
// becomes an already-done job carrying the cached bytes; a miss goes to
// the queue, where identical in-flight digests coalesce onto one job and
// a completed run is written back to the cache before the job settles.
// Determinism guarantees the served bytes are identical either way.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"splapi/internal/campaign"
	"splapi/internal/campaign/cache"
	"splapi/internal/campaign/queue"
)

// Config sizes a Service. Everything here is host policy: none of it is
// part of the request digest, none of it can change result bytes.
type Config struct {
	// Git is the code version campaigns are keyed and stamped with.
	Git string
	// CacheDir is the on-disk result store root.
	CacheDir string
	// Jobs bounds how many campaigns run concurrently (min 1).
	Jobs int
	// Par bounds each campaign's internal worker pool (see
	// sweep.Options); zero means the sweep default.
	Par int
}

// Service is the campaign service: queue + cache + runner.
type Service struct {
	git    string
	store  *cache.Store
	jobs   *queue.Queue
	runner *campaign.Runner
}

// NewService opens the cache and starts the worker pool.
func NewService(cfg Config) (*Service, error) {
	store, err := cache.Open(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		git:    cfg.Git,
		store:  store,
		runner: &campaign.Runner{Git: cfg.Git, Par: cfg.Par},
	}
	s.jobs = queue.New(cfg.Jobs, s.execute)
	return s, nil
}

// execute is the queue runner: run the campaign, persist the artifact,
// return its bytes. A cache-write failure fails the job — a result the
// service cannot persist is a result it will not vouch for — and the
// deterministic rerun costs nothing but time.
func (s *Service) execute(ctx context.Context, j *queue.Job) ([]byte, error) {
	req := j.Payload.(campaign.Request)
	body, err := s.runner.Run(ctx, req, func(ev campaign.ProgressEvent) { j.Publish(ev) })
	if err != nil {
		return nil, err
	}
	if err := s.store.Put(j.Key, body); err != nil {
		return nil, err
	}
	return body, nil
}

// Submit routes one request: canonicalize, digest, probe the cache, and
// either mint an already-done job from the cached bytes or enqueue a run
// (coalescing onto a live job with the same digest).
func (s *Service) Submit(req campaign.Request) (*queue.Job, error) {
	canon, err := campaign.Canonicalize(req)
	if err != nil {
		return nil, err
	}
	digest, err := campaign.Digest(canon, s.git)
	if err != nil {
		return nil, err
	}
	if body, ok := s.store.Get(digest); ok {
		return s.jobs.CompletedJob(digest, canon, body), nil
	}
	j, _, err := s.jobs.Submit(digest, canon)
	return j, err
}

// Job looks a job up by id.
func (s *Service) Job(id string) (*queue.Job, bool) { return s.jobs.Get(id) }

// Jobs snapshots all jobs in submission order.
func (s *Service) Jobs() []*queue.Job { return s.jobs.Jobs() }

// Cancel cancels a job by id.
func (s *Service) Cancel(id string) bool { return s.jobs.Cancel(id) }

// Result returns the cached artifact for a digest, if present.
func (s *Service) Result(digest string) ([]byte, bool) { return s.store.Get(digest) }

// Drain gracefully shuts the service down: no new jobs, queued jobs
// canceled, running campaigns drain their in-flight cells and settle
// without persisting anything partial.
func (s *Service) Drain(ctx context.Context) error { return s.jobs.Drain(ctx) }

// Metrics is the service counter snapshot.
type Metrics struct {
	Cache cache.Stats `json:"cache"`
	Queue queue.Stats `json:"queue"`
}

// Metrics snapshots cache and queue counters.
func (s *Service) Metrics() Metrics {
	return Metrics{Cache: s.store.Stats(), Queue: s.jobs.Stats()}
}

// jobView is the job-status wire representation.
type jobView struct {
	ID      string           `json:"id"`
	Digest  string           `json:"digest"`
	State   queue.State      `json:"state"`
	Cached  bool             `json:"cached"`
	Err     string           `json:"err,omitempty"`
	Request campaign.Request `json:"request"`
}

func viewOf(j *queue.Job) jobView {
	return jobView{
		ID: j.ID, Digest: j.Key, State: j.State(), Cached: j.Cached,
		Err: j.Err(), Request: j.Payload.(campaign.Request),
	}
}

// Handler builds the HTTP API over a Service.
//
//	POST /v1/campaigns            submit (?wait=1 blocks and returns the artifact)
//	GET  /v1/campaigns            list jobs
//	GET  /v1/jobs/{id}            job status
//	GET  /v1/jobs/{id}/result     artifact bytes of a done job
//	GET  /v1/jobs/{id}/events     progress stream (NDJSON, or SSE via Accept)
//	POST /v1/jobs/{id}/cancel     cancel
//	GET  /v1/results/{digest}     cached artifact by digest
//	GET  /v1/experiments          experiment registry
//	GET  /metrics                 plaintext counters
//	GET  /healthz                 liveness
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("GET /v1/results/{digest}", s.handleResult)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req campaign.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: bad request body: %w", err))
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if r.URL.Query().Get("wait") == "" {
		writeJSON(w, http.StatusAccepted, viewOf(j))
		return
	}
	// Synchronous mode: block until the job settles (or the client goes
	// away) and answer with the artifact itself.
	select {
	case <-j.Done():
	case <-r.Context().Done():
		return
	}
	s.writeArtifact(w, j)
}

// writeArtifact answers with a settled job's artifact bytes, tagging the
// response with the digest and whether it was served from cache.
func (s *Service) writeArtifact(w http.ResponseWriter, j *queue.Job) {
	switch j.State() {
	case queue.Done:
		body, _ := j.Body()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Spsimd-Digest", j.Key)
		if j.Cached {
			w.Header().Set("X-Spsimd-Cache", "hit")
		} else {
			w.Header().Set("X-Spsimd-Cache", "miss")
		}
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	case queue.Canceled:
		writeError(w, http.StatusConflict, fmt.Errorf("campaign: job %s canceled: %s", j.ID, j.Err()))
	case queue.Failed:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("campaign: job %s failed: %s", j.ID, j.Err()))
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("campaign: job %s still %s", j.ID, j.State()))
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]jobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, viewOf(j))
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j))
}

func (s *Service) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: no job %q", r.PathValue("id")))
		return
	}
	s.writeArtifact(w, j)
}

// handleJobEvents streams the job's event log from the start, then live
// until the job settles. Content negotiation: text/event-stream in Accept
// selects SSE frames, anything else NDJSON lines.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: no job %q", r.PathValue("id")))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	next := 0
	for {
		evs, wake, terminal := j.EventsSince(next)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "data: %s\n\n", data)
			} else {
				fmt.Fprintf(w, "%s\n", data)
			}
		}
		next += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if len(evs) > 0 {
			// Drain everything buffered before deciding whether to wait.
			continue
		}
		if terminal {
			// Drained under the same lock that saw the terminal state, so
			// the final state event has been written.
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Cancel(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: no job %q", id))
		return
	}
	j, _ := s.Job(id)
	writeJSON(w, http.StatusOK, viewOf(j))
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	body, ok := s.Result(digest)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: no cached result for digest %q", digest))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Spsimd-Digest", digest)
	w.Header().Set("X-Spsimd-Cache", "hit")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Service) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, campaign.ListExperiments())
}

// handleMetrics renders the counters in the flat "name value" exposition
// format. States are emitted in sorted order so the page is stable.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	fmt.Fprintf(w, "spsimd_cache_hits_total %d\n", m.Cache.Hits)
	fmt.Fprintf(w, "spsimd_cache_misses_total %d\n", m.Cache.Misses)
	fmt.Fprintf(w, "spsimd_cache_puts_total %d\n", m.Cache.Puts)
	fmt.Fprintf(w, "spsimd_cache_corrupt_total %d\n", m.Cache.Corrupt)
	fmt.Fprintf(w, "spsimd_cache_entries %d\n", m.Cache.Entries)
	if lookups := m.Cache.Hits + m.Cache.Misses; lookups > 0 {
		fmt.Fprintf(w, "spsimd_cache_hit_ratio %.4f\n", float64(m.Cache.Hits)/float64(lookups))
	} else {
		fmt.Fprintf(w, "spsimd_cache_hit_ratio 0\n")
	}
	fmt.Fprintf(w, "spsimd_queue_depth %d\n", m.Queue.Depth)
	fmt.Fprintf(w, "spsimd_workers_total %d\n", m.Queue.Workers)
	fmt.Fprintf(w, "spsimd_workers_busy %d\n", m.Queue.Busy)
	fmt.Fprintf(w, "spsimd_jobs_coalesced_total %d\n", m.Queue.Coalesce)
	states := make([]string, 0, len(m.Queue.ByState))
	for st := range m.Queue.ByState {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(w, "spsimd_jobs_total{state=%q} %d\n", st, m.Queue.ByState[queue.State(st)])
	}
}
