package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of a
// run share RunID; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	RunID  string  `json:"run_id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A disabled
// tracer records nothing and hands out ID 0.
type tracer struct {
	on    bool
	runID string
	t0    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, runID string) *tracer {
	return &tracer{on: on, runID: runID, t0: time.Now()}
}

// start opens a span under parent and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, RunID: t.runID, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func(id int) error) error {
	id := t.start(name, parent)
	defer t.end(id)
	return fn(id)
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered returns how much of [lo, hi] the union of intervals covers.
func covered(lo, hi float64, iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// childCoverage is the share of span id's duration covered by its
// children (1 for a span with no duration).
func childCoverage(spans []span, id int) float64 {
	var parent span
	var iv [][2]float64
	for _, s := range spans {
		if s.ID == id {
			parent = s
		} else if s.Parent == id {
			iv = append(iv, [2]float64{s.Start, s.End})
		}
	}
	if parent.dur() <= 0 {
		return 1
	}
	return covered(parent.Start, parent.End, iv) / parent.dur()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}
