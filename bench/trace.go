package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark makes into a layer. Spans of one
// cell share Req; Parent is the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the children's durations
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory on the benchmark's single driving
// goroutine; untraced reps have none.
type tracer struct {
	t0    time.Time
	req   string
	open  []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span runs fn inside a span named name, a child of the innermost open span.
func (t *tracer) span(name string, fn func()) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// fillSelf computes each span's self time in place and checks the tree is
// well formed: every child lies inside its parent and no self time is
// negative.
func fillSelf(spans []span) error {
	for i := range spans {
		spans[i].Self = spans[i].dur()
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := &spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		p.Self -= s.dur()
	}
	for _, s := range spans {
		if s.Self < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d ns", s.ID, s.Name, s.Self)
		}
	}
	return nil
}

// meanUs is the mean duration in microseconds of the spans with this name,
// 0 when there are none.
func (t *tracer) meanUs(name string) float64 {
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// write dumps the spans as JSON.
func (t *tracer) write(path, workload string) error {
	doc, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}
