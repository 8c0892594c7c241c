package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a concurrent-safe collection of named metrics. Metrics
// are registered lazily: Counter/Gauge/Histogram return the existing
// metric for (name, labels) or create it. Labels are alternating
// key/value pairs, e.g. Counter(name, "scheduler", "enki-greedy").
//
// Names must come from the constants in names.go — CI greps for
// string-literal registrations outside internal/obs.
type Registry struct {
	mu         sync.RWMutex
	gen        atomic.Uint64
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented package
// records into.
func Default() *Registry { return defaultRegistry }

// metricKey renders the canonical series identity: name{k="v",...}
// with labels sorted by key, so registration order never matters.
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for %s: %v", name, labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the counter for (name, labels), creating it if new.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key := metricKey(name, labels)
	r.mu.RLock()
	c, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	c = &Counter{}
	r.counters[key] = c
	return c
}

// Gauge returns the gauge for (name, labels), creating it if new.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key := metricKey(name, labels)
	r.mu.RLock()
	g, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[key] = g
	return g
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket bounds if new. The bounds of an existing histogram
// are not revalidated: a metric name maps to one bucket layout (see
// names.go).
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	key := metricKey(name, labels)
	r.mu.RLock()
	h, ok := r.histograms[key]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[key]; ok {
		return h
	}
	h = NewHistogram(bounds)
	r.histograms[key] = h
	return h
}

// Reset drops every registered metric and advances the registry
// generation. Handles obtained before Reset keep working but are
// detached from the registry; instrumented code either re-looks metrics
// up per operation or caches handles keyed by Generation (the hot-path
// pattern internal/sched uses), so tests can Reset between runs.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen.Add(1)
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.histograms = make(map[string]*Histogram)
}

// Generation returns a counter that advances on every Reset. Hot paths
// that cache metric handles compare the generation they cached under
// against the current one and re-register when it moved, keeping cached
// handles coherent with test-time Resets without a per-operation map
// lookup (and its key-building allocations).
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// HistogramSnapshot is the exported state of one histogram series.
// Exemplars (the slowest traced observation per bucket) are a JSON-only
// extra: timing facts outside the determinism contract, so
// DiffDeterministic never compares them.
type HistogramSnapshot struct {
	Bounds    []float64  `json:"bounds"`
	Buckets   []uint64   `json:"buckets"` // len(Bounds)+1, last is +Inf
	Count     uint64     `json:"count"`
	Sum       float64    `json:"sum"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, with series sorted
// by key so the encoding is deterministic.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.histograms {
		s.Histograms[k] = HistogramSnapshot{
			Bounds:    h.Bounds(),
			Buckets:   h.BucketCounts(),
			Count:     h.Count(),
			Sum:       h.Sum(),
			Exemplars: h.Exemplars(),
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. Go's encoder sorts
// map keys, so the output is deterministic for a given state.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DiffDeterministic compares the deterministic portion of two
// snapshots: counters (exact), and non-timing histograms (bucket
// counts and totals exact, sums within a small relative tolerance to
// absorb float addition order). Timing histograms (IsTimingMetric) and
// gauges (instantaneous last-write values such as queue depth) are
// skipped. It returns a sorted list of human-readable differences,
// empty when the snapshots agree.
func (s Snapshot) DiffDeterministic(other Snapshot) []string {
	var diffs []string
	for _, k := range unionKeys(s.Counters, other.Counters) {
		a, aok := s.Counters[k]
		b, bok := other.Counters[k]
		if aok != bok || a != b {
			diffs = append(diffs, fmt.Sprintf("counter %s: %d vs %d", k, a, b))
		}
	}
	for _, k := range unionKeys(s.Histograms, other.Histograms) {
		if IsTimingMetric(k) {
			continue
		}
		a, aok := s.Histograms[k]
		b, bok := other.Histograms[k]
		if aok != bok {
			diffs = append(diffs, fmt.Sprintf("histogram %s: present %v vs %v", k, aok, bok))
			continue
		}
		if a.Count != b.Count {
			diffs = append(diffs, fmt.Sprintf("histogram %s count: %d vs %d", k, a.Count, b.Count))
		}
		for i := range a.Buckets {
			if i >= len(b.Buckets) || a.Buckets[i] != b.Buckets[i] {
				diffs = append(diffs, fmt.Sprintf("histogram %s bucket %d: counts differ", k, i))
				break
			}
		}
		if !almostEqual(a.Sum, b.Sum) {
			diffs = append(diffs, fmt.Sprintf("histogram %s sum: %g vs %g", k, a.Sum, b.Sum))
		}
	}
	sort.Strings(diffs)
	return diffs
}

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one # TYPE line per metric
// family, the family's series grouped under it, sorted by key.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder
	family := ""
	for _, k := range unionKeys(s.Counters, nil) {
		if name := BaseName(k); name != family {
			family = name
			fmt.Fprintf(&b, "# TYPE %s counter\n", name)
		}
		fmt.Fprintf(&b, "%s %d\n", k, s.Counters[k])
	}
	family = ""
	for _, k := range unionKeys(s.Gauges, nil) {
		if name := BaseName(k); name != family {
			family = name
			fmt.Fprintf(&b, "# TYPE %s gauge\n", name)
		}
		fmt.Fprintf(&b, "%s %s\n", k, formatValue(s.Gauges[k]))
	}
	family = ""
	for _, k := range unionKeys(s.Histograms, nil) {
		h := s.Histograms[k]
		if name := BaseName(k); name != family {
			family = name
			fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		}
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			fmt.Fprintf(&b, "%s %d\n", withLabel(k, "le", formatValue(bound)), cum)
		}
		fmt.Fprintf(&b, "%s %d\n", withLabel(k, "le", "+Inf"), h.Count)
		fmt.Fprintf(&b, "%s %s\n", suffixKey(k, "_sum"), formatValue(h.Sum))
		fmt.Fprintf(&b, "%s %d\n", suffixKey(k, "_count"), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// BaseName strips the label block from a series key, leaving its
// family name.
func BaseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// withLabel appends one more label to a series key.
func withLabel(key, k, v string) string {
	label := fmt.Sprintf("%s=%q", k, v)
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:len(key)-1] + "," + label + "}"
	}
	return key + "{" + label + "}"
}

// suffixKey appends a name suffix (e.g. _sum) before the label block.
func suffixKey(key, suffix string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i] + suffix + key[i:]
	}
	return key + suffix
}

// formatValue renders a sample value; %g keeps integer bounds compact
// (10, not 10.000000) while preserving precision for small latencies.
func formatValue(v float64) string { return fmt.Sprintf("%g", v) }
