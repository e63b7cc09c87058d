package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the index of the span that caused this one (-1 for a
// request's root). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory and writes them out once, when the benchmark
// ends. A nil tracer records nothing, so the untraced run pays one nil check
// per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allots a fresh request id.
func (t *tracer) request() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a duration the
// program itself reports, or a client-side timestamp pair).
func (t *tracer) add(name string, start time.Time, d time.Duration, parent, req int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent, req int, fn func()) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// layerTimes aggregates spans by name: how many, their total duration, and
// their self time (duration minus the part covered by child spans).
type layerTimes struct {
	Count int     `json:"count"`
	Total float64 `json:"totalUs"`
	Self  float64 `json:"selfUs"`
}

func (t *tracer) byName() map[string]*layerTimes {
	out := map[string]*layerTimes{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += float64(d) / 1e3
		lt.Self += float64(d-child[i]) / 1e3
	}
	return out
}

// meanUs is the mean duration in microseconds of the spans with this name.
func meanUs(by map[string]*layerTimes, name string) float64 {
	lt := by[name]
	if lt == nil || lt.Count == 0 {
		return 0
	}
	return lt.Total / float64(lt.Count)
}

// write dumps every span plus the per-name aggregation.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	by := t.byName()
	t.mu.Lock()
	doc := struct {
		Layers map[string]*layerTimes `json:"layers"`
		Spans  []span                 `json:"spans"`
	}{by, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
