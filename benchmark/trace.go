package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one recorded interval. Spans are made by the benchmark's own
// wrappers around calls into the program's layers; nothing inside the
// program records them. IDs are 1-based positions in the trace; the root
// span of a query has Parent 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Detail names the operator of a phys.op span.
	Detail string `json:"detail,omitempty"`
	// Derived marks spans laid out from the executor's own per-operator
	// counters (cumulative time, not one contiguous interval) rather than
	// measured by a wrapper.
	Derived bool `json:"derived,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name, class string, parent, query int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Query: query, Name: name, Class: class, Start: t.now(), End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = t.now()
	return s.dur()
}

// derived records a span whose interval is computed, not measured.
func (t *tracer) derived(name, class, detail string, parent, query int, start, end int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Query: query, Name: name, Class: class, Start: start, End: end, Detail: detail, Derived: true})
	return len(t.spans)
}

// durations returns, in milliseconds, every span of that name and class.
func (t *tracer) durations(name, class string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Class == class {
			out = append(out, float64(s.dur().Nanoseconds())/1e6)
		}
	}
	return out
}

// rootSpan is the only span name allowed to have no parent.
const rootSpan = "query"

// check is the structural half of the reconciliation: every span closed,
// none ending before it starts, and every span but a query root hanging
// off an earlier span of the same query.
func (t *tracer) check() error {
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.End < s.Start:
			return fmt.Errorf("trace: span %d (%s) ends before it starts or was never closed", s.ID, s.Name)
		case s.Parent == 0 && s.Name != rootSpan:
			return fmt.Errorf("trace: span %d (%s) has no parent", s.ID, s.Name)
		case s.Parent != 0 && (s.Parent >= s.ID || t.spans[s.Parent-1].Query != s.Query):
			return fmt.Errorf("trace: span %d (%s) has parent %d outside its query", s.ID, s.Name, s.Parent)
		}
	}
	return nil
}

// write stores the spans as <dir>/trace_<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
