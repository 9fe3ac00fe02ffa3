package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced run, recorded around a call
// into the program. Start and End are offsets from the recorder's origin;
// Parent is 0 for a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced path: Begin returns 0 and End does nothing.
type Recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newRecorder() *Recorder { return &Recorder{origin: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.origin)) }

// Begin opens a span under parent and returns its id.
func (r *Recorder) Begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: t, End: -1})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// Add records a span whose bounds were observed elsewhere (the phases of
// a service job, known only once its event stream has been read).
func (r *Recorder) Add(parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)),
	})
	return len(r.spans)
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children may overlap each other (parallel workers) and may stick out of
// the parent; only the covered part of the parent counts once.
func selfTimes(spans []Span) map[int]int64 {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi int64, spans []Span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// childSum is the summed duration of a span's direct children (busy
// worker time, counting overlapping children separately).
func childSum(spans []Span, parent int) int64 {
	var t int64
	for _, s := range spans {
		if s.Parent == parent {
			t += s.dur()
		}
	}
	return t
}

// SpanStat aggregates the spans of one name.
type SpanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// spanStats sums duration and self time per span name, largest self time
// first.
func spanStats(spans []Span) []SpanStat {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []SpanStat
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, SpanStat{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalS += float64(s.dur()) / 1e9
		out[i].SelfS += float64(self[s.ID]) / 1e9
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}
