package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder started; Parent is the index of the enclosing span (-1 for a
// root) and Req groups the spans of one op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps spans in memory until the run ends. The driver is a single
// load-generating goroutine, so the recorder needs no lock. A disabled
// recorder records nothing and its begin/end calls cost a branch.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span and returns its index (-1 when disabled).
func (r *recorder) begin(name string, parent int, req int64) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	s := &r.spans[id]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

// durations returns the durations in ms of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// spanSummary is the per-name aggregate written next to the spans.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summary aggregates spans by name. A span's self time is its duration minus
// the part of its interval that its children cover (children of one parent
// may overlap, so their union is subtracted, not their sum).
func (r *recorder) summary() map[string]spanSummary {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanSummary)
	for i, s := range r.spans {
		covered := int64(0)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		curS, curE := int64(-1), int64(-1)
		for _, k := range kids {
			if k.Start > curE {
				covered += curE - curS
				curS, curE = k.Start, k.End
			} else if k.End > curE {
				curE = k.End
			}
		}
		covered += curE - curS
		agg := out[s.Name]
		agg.Count++
		agg.TotalMS += float64(s.End-s.Start) / 1e6
		agg.SelfMS += float64(s.End-s.Start-covered) / 1e6
		out[s.Name] = agg
	}
	return out
}

// write stores the host record, the result, the per-name summary and every
// span as one JSON document.
func (r *recorder) write(path string, h host, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	doc := map[string]any{"host": h, "result": res, "summary": r.summary(), "spans": r.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
