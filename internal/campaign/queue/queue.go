// Package queue is the campaign service's job scheduler: a bounded worker
// pool executing submitted jobs with an explicit lifecycle
// (queued → running → done | failed | canceled), per-job cancellation,
// single-flight coalescing of identical keys, a replayable per-job event
// stream, and a graceful drain for shutdown.
//
// The queue is host-side plumbing and knows nothing about simulations; it
// schedules opaque payloads under opaque keys. Determinism lives a layer
// down (the runner produces byte-identical results for a key no matter
// which worker runs it or when), which is what makes coalescing sound:
// two submissions with one key are *the same job*, not merely similar
// ones.
package queue

import (
	"context"
	"fmt"
	"sync"
)

// State is a job's lifecycle phase.
type State string

const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Event is one entry of a job's progress stream: either a state
// transition or a runner-published progress payload. Events are retained
// for the job's lifetime, so late subscribers replay from the start.
type Event struct {
	Seq      int    `json:"seq"`
	Kind     string `json:"kind"` // "state" or "progress"
	State    State  `json:"state,omitempty"`
	Err      string `json:"err,omitempty"`
	Progress any    `json:"progress,omitempty"`
}

// Job is one scheduled unit of work.
type Job struct {
	// ID is the queue-assigned job id; Key is the caller's dedup key
	// (for campaigns, the canonical content digest).
	ID  string
	Key string
	// Payload is the caller's job description, opaque to the queue.
	Payload any
	// Cached marks a job whose result came from the cache rather than a
	// fresh run (set at submit time by CompletedJob).
	Cached bool

	mu     sync.Mutex
	state  State
	err    string
	body   []byte
	events []Event
	notify chan struct{} // closed and replaced on every event
	done   chan struct{} // closed at a terminal state
	cancel context.CancelFunc
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure message ("" unless Failed or Canceled).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Body returns the result bytes; ok is false until the job is Done.
func (j *Job) Body() (body []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done {
		return nil, false
	}
	return j.body, true
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Publish appends a progress payload to the job's event stream. Runners
// call it from worker goroutines; ordering across publishers is
// scheduling order, which is fine for an observability stream.
func (j *Job) Publish(progress any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(Event{Kind: "progress", Progress: progress})
}

// EventsSince returns the events from seq onward. If none exist yet it
// returns a channel that is closed when the next event (of any kind)
// arrives, so stream handlers can wait without polling. terminal is the
// job's state read under the same lock as the events: a follower that
// gets no events and terminal == true has seen the final state event,
// and may end its stream.
func (j *Job) EventsSince(seq int) (evs []Event, wake <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	terminal = j.state.Terminal()
	if seq < len(j.events) {
		out := make([]Event, len(j.events)-seq)
		copy(out, j.events[seq:])
		return out, nil, terminal
	}
	return nil, j.notify, terminal
}

// appendEventLocked records an event and wakes every waiting stream.
func (j *Job) appendEventLocked(ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

// setState transitions the job, records the transition on the event
// stream, and closes done at terminal states.
func (j *Job) setState(s State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.err = errMsg
	j.appendEventLocked(Event{Kind: "state", State: s, Err: errMsg})
	if s.Terminal() {
		close(j.done)
	}
}

// Runner executes one job to its result bytes. A nil error means Done; a
// context error means Canceled; anything else means Failed.
type Runner func(ctx context.Context, j *Job) ([]byte, error)

// Stats is a point-in-time queue snapshot for the metrics endpoint.
type Stats struct {
	Workers  int           `json:"workers"`
	Busy     int           `json:"busy"`
	Depth    int           `json:"depth"` // queued, not yet picked up
	ByState  map[State]int `json:"byState"`
	Coalesce uint64        `json:"coalesced"`
}

// Queue is the bounded worker pool.
type Queue struct {
	run     Runner
	workers int

	mu        sync.Mutex
	cond      *sync.Cond
	byID      map[string]*Job
	byKey     map[string]*Job // live (queued or running) jobs, for single-flight
	order     []*Job          // submission order, for listing
	pending   []*Job          // FIFO of queued jobs
	busy      int
	coalesced uint64
	draining  bool
	seq       int

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// New starts a queue with the given worker count (min 1).
func New(workers int, run Runner) *Queue {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		run:     run,
		workers: workers,
		byID:    make(map[string]*Job),
		byKey:   make(map[string]*Job),
		baseCtx: ctx,
		stop:    cancel,
	}
	q.cond = sync.NewCond(&q.mu)
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// newJobLocked allocates a job record; q.mu must be held.
func (q *Queue) newJobLocked(key string, payload any, state State) *Job {
	q.seq++
	j := &Job{
		ID: fmt.Sprintf("j%06d", q.seq), Key: key, Payload: payload,
		state:  state,
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
	j.events = []Event{{Seq: 0, Kind: "state", State: state}}
	q.byID[j.ID] = j
	q.order = append(q.order, j)
	return j
}

// Submit schedules payload under key, coalescing onto a live job with the
// same key if one exists (the returned bool reports that). During a drain
// submissions are refused.
func (q *Queue) Submit(key string, payload any) (*Job, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return nil, false, fmt.Errorf("queue: draining, not accepting new jobs")
	}
	if live, ok := q.byKey[key]; ok {
		q.coalesced++
		return live, true, nil
	}
	j := q.newJobLocked(key, payload, Queued)
	q.byKey[key] = j
	q.pending = append(q.pending, j)
	q.cond.Signal()
	return j, false, nil
}

// CompletedJob records an already-done job (a cache hit): the job is born
// in the Done state carrying body, so cached and computed results present
// the same lifecycle to clients.
func (q *Queue) CompletedJob(key string, payload any, body []byte) *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.newJobLocked(key, payload, Done)
	j.Cached = true
	j.body = body
	close(j.done)
	return j
}

// Get looks a job up by id.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	return j, ok
}

// Jobs snapshots every job in submission order.
func (q *Queue) Jobs() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, len(q.order))
	copy(out, q.order)
	return out
}

// Cancel cancels a job: a queued job is marked canceled without running;
// a running job has its context canceled (the runner drains and returns).
// Canceling a terminal job is a no-op; ok reports whether the id exists.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	j, ok := q.byID[id]
	if !ok {
		q.mu.Unlock()
		return false
	}
	// Remove from pending if still queued.
	for i, p := range q.pending {
		if p == j {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			break
		}
	}
	cancel := j.cancel
	if j.State() == Queued {
		delete(q.byKey, j.Key)
	}
	q.mu.Unlock()

	if cancel != nil {
		cancel()
	} else {
		j.setState(Canceled, "canceled before start")
	}
	return true
}

// worker is one pool goroutine: pull, run, settle, repeat.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && q.baseCtx.Err() == nil {
			q.cond.Wait()
		}
		if q.baseCtx.Err() != nil && len(q.pending) == 0 {
			q.mu.Unlock()
			return
		}
		j := q.pending[0]
		q.pending = q.pending[1:]
		ctx, cancel := context.WithCancel(q.baseCtx)
		j.mu.Lock()
		j.cancel = cancel
		j.mu.Unlock()
		q.busy++
		q.mu.Unlock()

		j.setState(Running, "")
		body, err := q.runSafely(ctx, j)
		canceled := ctx.Err() != nil
		cancel()

		q.mu.Lock()
		q.busy--
		delete(q.byKey, j.Key)
		q.mu.Unlock()

		switch {
		case err == nil:
			j.mu.Lock()
			j.body = body
			j.mu.Unlock()
			j.setState(Done, "")
		case canceled:
			j.setState(Canceled, err.Error())
		default:
			j.setState(Failed, err.Error())
		}
	}
}

// runSafely shields the pool from a panicking runner.
func (q *Queue) runSafely(ctx context.Context, j *Job) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("queue: job %s panicked: %v", j.ID, r)
		}
	}()
	return q.run(ctx, j)
}

// Drain gracefully shuts the pool down: new submissions are refused,
// queued jobs are canceled without running, running jobs have their
// contexts canceled (runners drain their in-flight work and settle), and
// Drain waits for every worker to return or ctx to expire.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.draining = true
	pending := q.pending
	q.pending = nil
	for _, j := range pending {
		delete(q.byKey, j.Key)
	}
	q.mu.Unlock()
	for _, j := range pending {
		j.setState(Canceled, "server draining")
	}

	// Cancel the base context: running jobs see it through their own
	// contexts, idle workers wake and exit.
	q.stop()
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("queue: drain timed out: %w", ctx.Err())
	}
}

// Stats snapshots worker occupancy, queue depth, and per-state counts.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Workers:  q.workers,
		Busy:     q.busy,
		Depth:    len(q.pending),
		ByState:  make(map[State]int),
		Coalesce: q.coalesced,
	}
	for _, j := range q.order {
		st.ByState[j.State()]++
	}
	return st
}
