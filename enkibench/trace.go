package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spanRecord is one recorded span. Spans of one day share Trace; a
// replay span belongs to the day whose inputs it replays but has no
// parent, since it runs after the day span ends.
type spanRecord struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Calls  int    `json:"calls,omitempty"` // program calls a replay span covers
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []spanRecord
	// session prefixes trace names where day numbers restart: each
	// quorum replica-set session settles its own day 1, 2, ...
	session string
}

// add records a span and returns its ID (IDs start at 1; parent 0 means
// a root span).
func (t *tracer) add(trace string, parent int, name, layer string, iv interval, calls int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRecord{Trace: trace, ID: id, Parent: parent, Name: name, Layer: layer,
		Start: iv.start, End: iv.end, Calls: calls})
	return id
}

// children returns the intervals of every span's children, by parent ID.
func (t *tracer) children() map[int][]interval {
	out := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], interval{s.Start, s.End})
		}
	}
	return out
}

// writeJSONL writes every span, with its self time, one JSON object a
// line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	kids := t.children()
	for _, s := range t.spans {
		s.Self = selfTime(interval{s.Start, s.End}, kids[s.ID])
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// dayTrace names the trace of one settlement day.
func (t *tracer) dayTrace(day int) string { return fmt.Sprintf("%sday-%d", t.session, day) }
