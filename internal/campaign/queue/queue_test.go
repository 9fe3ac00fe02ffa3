package queue

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// wait blocks until j is terminal or the test times out.
func wait(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	}
}

func TestLifecycleDone(t *testing.T) {
	q := New(2, func(ctx context.Context, j *Job) ([]byte, error) {
		j.Publish(map[string]int{"step": 1})
		return []byte("result:" + j.Key[:8]), nil
	})
	defer q.Drain(context.Background())

	j, coalesced, err := q.Submit(k("a"), "payload")
	if err != nil || coalesced {
		t.Fatalf("Submit = %v, coalesced=%v", err, coalesced)
	}
	wait(t, j)
	if j.State() != Done {
		t.Fatalf("state = %s, want done; err = %q", j.State(), j.Err())
	}
	body, ok := j.Body()
	if !ok || string(body) != "result:"+k("a")[:8] {
		t.Fatalf("body = %q, %v", body, ok)
	}

	// Event stream replays from the start: queued, running, progress, done.
	evs, _, _ := j.EventsSince(0)
	var kinds []string
	for _, ev := range evs {
		if ev.Kind == "state" {
			kinds = append(kinds, string(ev.State))
		} else {
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []string{"queued", "running", "progress", "done"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestLifecycleFailed(t *testing.T) {
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		return nil, errors.New("boom")
	})
	defer q.Drain(context.Background())
	j, _, err := q.Submit(k("fail"), nil)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if j.State() != Failed || j.Err() != "boom" {
		t.Fatalf("state=%s err=%q", j.State(), j.Err())
	}
	if _, ok := j.Body(); ok {
		t.Fatal("failed job served a body")
	}
}

func TestPanickingRunnerFailsJobNotPool(t *testing.T) {
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		if j.Payload == "explode" {
			panic("kaboom")
		}
		return []byte("ok"), nil
	})
	defer q.Drain(context.Background())
	j1, _, _ := q.Submit(k("p1"), "explode")
	wait(t, j1)
	if j1.State() != Failed {
		t.Fatalf("panicked job state = %s", j1.State())
	}
	// The worker survived and runs the next job.
	j2, _, _ := q.Submit(k("p2"), "fine")
	wait(t, j2)
	if j2.State() != Done {
		t.Fatalf("post-panic job state = %s, err=%q", j2.State(), j2.Err())
	}
}

// Concurrent submissions of the same key share one job; a resubmission
// after completion is a fresh job (the cache layer, not the queue,
// handles replays of finished work).
func TestSingleFlightCoalescing(t *testing.T) {
	release := make(chan struct{})
	q := New(2, func(ctx context.Context, j *Job) ([]byte, error) {
		<-release
		return []byte("x"), nil
	})
	defer q.Drain(context.Background())

	j1, c1, _ := q.Submit(k("same"), nil)
	j2, c2, _ := q.Submit(k("same"), nil)
	if c1 || !c2 {
		t.Fatalf("coalesced flags = %v, %v", c1, c2)
	}
	if j1 != j2 {
		t.Fatal("identical keys produced distinct live jobs")
	}
	close(release)
	wait(t, j1)

	j3, c3, _ := q.Submit(k("same"), nil)
	if c3 || j3 == j1 {
		t.Fatal("submission after completion coalesced onto a finished job")
	}
	wait(t, j3)
	if st := q.Stats(); st.Coalesce != 1 {
		t.Fatalf("coalesce counter = %d, want 1", st.Coalesce)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	block := make(chan struct{})
	var ran sync.Map
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		ran.Store(j.Key, true)
		<-block
		return []byte("x"), nil
	})
	defer q.Drain(context.Background())

	j1, _, _ := q.Submit(k("blocker"), nil)
	// Wait until the single worker is occupied by j1.
	for j1.State() != Running {
		time.Sleep(time.Millisecond)
	}
	j2, _, _ := q.Submit(k("victim"), nil)
	if !q.Cancel(j2.ID) {
		t.Fatal("Cancel returned false for a known job")
	}
	wait(t, j2)
	if j2.State() != Canceled {
		t.Fatalf("state = %s", j2.State())
	}
	close(block)
	wait(t, j1)
	if _, ok := ran.Load(k("victim")); ok {
		t.Fatal("canceled queued job still ran")
	}
	// The canceled job's key is free for a fresh submission.
	j3, c3, err := q.Submit(k("victim"), nil)
	if err != nil || c3 {
		t.Fatalf("resubmit after cancel: err=%v coalesced=%v", err, c3)
	}
	wait(t, j3)
	if j3.State() != Done {
		t.Fatalf("resubmitted job state = %s", j3.State())
	}
}

func TestCancelRunningJobDrains(t *testing.T) {
	started := make(chan struct{})
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		// Mimic the campaign runner: drain, then report cancellation.
		return nil, fmt.Errorf("canceled after draining: %w", ctx.Err())
	})
	defer q.Drain(context.Background())
	j, _, _ := q.Submit(k("run"), nil)
	<-started
	if !q.Cancel(j.ID) {
		t.Fatal("Cancel returned false")
	}
	wait(t, j)
	if j.State() != Canceled {
		t.Fatalf("state = %s, err = %q", j.State(), j.Err())
	}
}

func TestCancelUnknownJob(t *testing.T) {
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) { return nil, nil })
	defer q.Drain(context.Background())
	if q.Cancel("j999999") {
		t.Fatal("Cancel invented a job")
	}
}

func TestCompletedJobIsCacheHit(t *testing.T) {
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		t.Error("runner invoked for a cache hit")
		return nil, nil
	})
	defer q.Drain(context.Background())
	j := q.CompletedJob(k("hit"), "payload", []byte("cached body"))
	if j.State() != Done || !j.Cached {
		t.Fatalf("state=%s cached=%v", j.State(), j.Cached)
	}
	body, ok := j.Body()
	if !ok || string(body) != "cached body" {
		t.Fatalf("body = %q, %v", body, ok)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("done channel not closed")
	}
	if got, ok := q.Get(j.ID); !ok || got != j {
		t.Fatal("cache-hit job not retrievable by id")
	}
}

// Drain cancels queued work, lets running work settle, and refuses new
// submissions.
func TestDrain(t *testing.T) {
	started := make(chan struct{})
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	running, _, _ := q.Submit(k("running"), nil)
	<-started
	queued, _, _ := q.Submit(k("queued"), nil)

	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if running.State() != Canceled {
		t.Fatalf("running job state = %s", running.State())
	}
	if queued.State() != Canceled || queued.Err() != "server draining" {
		t.Fatalf("queued job state = %s, err = %q", queued.State(), queued.Err())
	}
	if _, _, err := q.Submit(k("late"), nil); err == nil {
		t.Fatal("Submit accepted work during drain")
	}
}

func TestDrainTimeout(t *testing.T) {
	hang := make(chan struct{})
	started := make(chan struct{})
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		close(started)
		<-hang // ignores ctx: a stuck runner
		return nil, nil
	})
	q.Submit(k("stuck"), nil)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); err == nil {
		t.Fatal("Drain did not report timeout for a stuck runner")
	}
	close(hang)
}

func TestEventsSinceWaitsForNext(t *testing.T) {
	release := make(chan struct{})
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		<-release
		return []byte("x"), nil
	})
	defer q.Drain(context.Background())
	j, _, _ := q.Submit(k("ev"), nil)

	// Consume everything, then wait for the next event.
	evs, _, _ := j.EventsSince(0)
	next := len(evs)
	for {
		more, ch, _ := j.EventsSince(next)
		if len(more) > 0 {
			next += len(more)
			continue
		}
		break_ := false
		select {
		case <-ch:
		case <-time.After(10 * time.Millisecond):
			break_ = true
		}
		if break_ {
			break
		}
	}
	close(release)
	wait(t, j)
	evs, _, _ = j.EventsSince(0)
	last := evs[len(evs)-1]
	if last.Kind != "state" || last.State != Done {
		t.Fatalf("last event = %+v", last)
	}
}

// TestFollowedStreamsEndWithTerminalEvent follows many short jobs the way
// the spsimd event stream does: read, and stop once a read returns no
// events and reports the job terminal. Each job finishes while its
// follower rereads in a tight loop, so a terminal flag read apart from
// the events would end some streams before their final state event.
func TestFollowedStreamsEndWithTerminalEvent(t *testing.T) {
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		j.Publish(1)
		return []byte("x"), nil
	})
	defer q.Drain(context.Background())

	for i := 0; i < 2000; i++ {
		j, _, err := q.Submit(k(fmt.Sprint("follow", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		var last Event
		deadline := time.Now().Add(10 * time.Second)
		for next := 0; ; {
			evs, _, terminal := j.EventsSince(next)
			if len(evs) > 0 {
				next += len(evs)
				last = evs[len(evs)-1]
				continue
			}
			if terminal {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s: stream stalled in state %s", j.ID, j.State())
			}
			// Poll rather than wait on the wake channel: rereading at
			// once keeps the follower inside the race window.
			runtime.Gosched()
		}
		if last.Kind != "state" || !last.State.Terminal() {
			t.Fatalf("stream of job %d ended on %+v, want its terminal state event", i, last)
		}
	}
}

func TestStats(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		<-release
		return []byte("x"), nil
	})
	defer q.Drain(context.Background())
	q.Submit(k("s1"), nil)
	<-started
	q.Submit(k("s2"), nil)
	st := q.Stats()
	if st.Workers != 1 || st.Busy != 1 || st.Depth != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByState[Running] != 1 || st.ByState[Queued] != 1 {
		t.Fatalf("byState = %+v", st.ByState)
	}
	close(release)
}

// k derives a 64-hex-char key from a short label.
func k(label string) string {
	const hexd = "0123456789abcdef"
	out := make([]byte, 64)
	for i := range out {
		out[i] = hexd[(len(label)+i*7+int(label[i%len(label)]))%16]
	}
	return string(out)
}
