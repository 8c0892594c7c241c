package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one finished traced operation. Name and Labels identify what
// ran, and TraceID/SpanID/ParentID place it in a causal tree; all five
// are deterministic across worker counts and process boundaries. Only
// the timestamps record when, and they are not deterministic.
type Span struct {
	Name     string   `json:"name"`
	Labels   []string `json:"labels,omitempty"` // alternating key/value pairs
	TraceID  string   `json:"traceId,omitempty"`
	SpanID   string   `json:"spanId,omitempty"`
	ParentID string   `json:"parentId,omitempty"` // empty for a trace's root span
	StartNS  int64    `json:"startNs"`
	EndNS    int64    `json:"endNs"`
}

// Duration returns the span's wall-clock length.
func (s Span) Duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Identity renders the timing-free identity of a span: its name plus
// labels, in the same key-sorted form metric series use, extended with
// the trace/span/parent IDs when the span belongs to a trace. Two runs
// of the same seeded workload produce the same multiset of identities
// at any worker count — IDs are derived, never random.
func (s Span) Identity() string {
	key := metricKey(s.Name, s.Labels)
	if s.TraceID == "" {
		return key
	}
	return key + " trace=" + s.TraceID + " span=" + s.SpanID + " parent=" + s.ParentID
}

// TraceContext identifies a position in a trace for propagation across
// goroutine and process boundaries; netproto carries it on every wire
// message so both sides of a settlement day share one trace.
type TraceContext struct {
	TraceID string `json:"traceId,omitempty"`
	SpanID  string `json:"spanId,omitempty"`
}

// mix64 is the SplitMix64 finalizer (the same bijective avalanche mix
// internal/dist uses for labeled stream splits); obs keeps its own copy
// to stay dependency-free.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const goldenGamma = 0x9e3779b97f4a7c15

// hash64 folds a string to 64 bits (FNV-1a) for span-ID derivation.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// DeriveTraceID derives a 16-hex-digit trace ID from the given parts —
// typically a seed plus the day number or job coordinates. It is a pure
// function of the parts (no randomness, no clock), so the same seeded
// workload names the same traces in every run, worker count, and
// process.
func DeriveTraceID(parts ...uint64) string {
	s := uint64(goldenGamma)
	for _, p := range parts {
		s = mix64(s ^ mix64(p+goldenGamma))
	}
	return fmt.Sprintf("%016x", s)
}

// DefaultSpanCapacity bounds a tracer's retained spans unless
// SetCapacity overrides it: a long-running `enkid -trace-out` daemon
// keeps the most recent spans instead of growing without bound.
const DefaultSpanCapacity = 1 << 16

// Tracer collects spans into a bounded ring. The zero value is a
// disabled tracer whose Start is a near-free atomic load; Enable turns
// collection on. When the ring is full the oldest span is overwritten
// and the obs_trace_dropped_total counter incremented.
type Tracer struct {
	enabled atomic.Bool
	mu      sync.Mutex
	spans   []Span
	head    int  // next overwrite position once the ring is full
	full    bool // the ring has wrapped at least once
	cap     int  // 0 means DefaultSpanCapacity
}

var defaultTracer Tracer

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return &defaultTracer }

// Enable turns span collection on.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable turns span collection off (already-collected spans remain).
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports whether spans are being collected.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// SetCapacity bounds the number of retained spans (n <= 0 restores
// DefaultSpanCapacity). Call it before collection starts; shrinking a
// ring that already holds more spans is not supported.
func (t *Tracer) SetCapacity(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 {
		n = 0
	}
	t.cap = n
}

// capacity returns the effective ring size; callers hold t.mu.
func (t *Tracer) capacity() int {
	if t.cap == 0 {
		return DefaultSpanCapacity
	}
	return t.cap
}

// record appends a finished span, overwriting the oldest when full.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	c := t.capacity()
	if !t.full && len(t.spans) < c {
		t.spans = append(t.spans, s)
		t.mu.Unlock()
		return
	}
	t.full = true
	t.spans[t.head] = s
	t.head = (t.head + 1) % c
	t.mu.Unlock()
	Default().Counter(MetricObsTraceDropped).Inc()
}

// ActiveSpan is an in-flight span; End finishes and records it. A nil
// ActiveSpan (from a disabled tracer) is a no-op for every method.
type ActiveSpan struct {
	tracer *Tracer
	span   Span
	state  uint64 // deterministic ID-derivation state
	seq    uint64 // children started so far (serial per parent)
}

// Start opens a flat span with no trace lineage. Labels are alternating
// key/value pairs. Returns nil when the tracer is disabled; every
// method on nil is safe.
func (t *Tracer) Start(name string, labels ...string) *ActiveSpan {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return &ActiveSpan{
		tracer: t,
		span:   Span{Name: name, Labels: labels, StartNS: time.Now().UnixNano()},
	}
}

// StartTrace opens the root span of the trace named by traceID
// (typically from DeriveTraceID). The root's span ID is derived from
// the trace ID and the span's identity, so it is reproducible.
func (t *Tracer) StartTrace(traceID, name string, labels ...string) *ActiveSpan {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return t.open(traceID, "", hash64(traceID), 0, name, labels)
}

// StartRemote opens a span as a child of a parent living in another
// process, identified by a TraceContext received on the wire. An empty
// context degrades to a flat Start.
func (t *Tracer) StartRemote(ctx TraceContext, name string, labels ...string) *ActiveSpan {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	if ctx.TraceID == "" {
		return t.Start(name, labels...)
	}
	return t.open(ctx.TraceID, ctx.SpanID, hash64(ctx.TraceID+"/"+ctx.SpanID), 0, name, labels)
}

// StartChild opens a child span of s. Children of one parent must be
// started serially (the day cycle is); the per-parent sequence number
// keeps same-named siblings' IDs distinct and deterministic.
func (s *ActiveSpan) StartChild(name string, labels ...string) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.seq++
	return s.tracer.open(s.span.TraceID, s.span.SpanID, s.state, s.seq, name, labels)
}

// open derives the child ID from (parent state, seq, identity) and
// starts the span. The derivation is the SplitMix64 label fold, so span
// IDs are pure functions of the trace lineage — never of scheduling.
func (t *Tracer) open(traceID, parentID string, parentState, seq uint64, name string, labels []string) *ActiveSpan {
	state := mix64(parentState ^ mix64(hash64(metricKey(name, labels))+(seq+1)*goldenGamma))
	return &ActiveSpan{
		tracer: t,
		span: Span{
			Name:     name,
			Labels:   labels,
			TraceID:  traceID,
			SpanID:   fmt.Sprintf("%016x", state),
			ParentID: parentID,
			StartNS:  time.Now().UnixNano(),
		},
		state: state,
	}
}

// ID returns the span's derived ID ("" for nil or flat spans).
func (s *ActiveSpan) ID() string {
	if s == nil {
		return ""
	}
	return s.span.SpanID
}

// Context returns the span's propagation context (zero for nil spans).
func (s *ActiveSpan) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.span.TraceID, SpanID: s.span.SpanID}
}

// End finishes the span and appends it to its tracer.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.span.EndNS = time.Now().UnixNano()
	s.tracer.record(s.span)
}

// Drain removes and returns all collected spans, sorted by identity
// (name + labels + trace lineage) and then start time, so the export is
// deterministic regardless of how concurrent spans interleaved.
func (t *Tracer) Drain() []Span {
	t.mu.Lock()
	spans := t.spans
	if t.full {
		// Restore insertion order: oldest retained span first.
		ordered := make([]Span, 0, len(spans))
		ordered = append(ordered, spans[t.head:]...)
		ordered = append(ordered, spans[:t.head]...)
		spans = ordered
	}
	t.spans = nil
	t.head = 0
	t.full = false
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i].Identity(), spans[j].Identity()
		if a != b {
			return a < b
		}
		return spans[i].StartNS < spans[j].StartNS
	})
	return spans
}

// Snapshot returns a copy of the collected spans in insertion order
// without draining the ring. The debug-bundle writer uses it so a
// bundle capture never erases spans a later -trace-out export would
// drain.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	if t.full {
		out = append(out, t.spans[t.head:]...)
		out = append(out, t.spans[:t.head]...)
		return out
	}
	return append(out, t.spans...)
}

// WriteJSONL drains the tracer and writes one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error { return writeJSONL(w, t.Drain()) }

// ReadSpans loads a span-trace JSONL stream (the WriteJSONL format)
// under ReadJSONL's crash-tolerance contract.
func ReadSpans(r io.Reader) ([]Span, error) { return ReadJSONL[Span](r, "obs: trace") }

// Identities drains the tracer and returns the sorted timing-free span
// identities — the replayable per-day trace the determinism tests
// compare across worker counts.
func (t *Tracer) Identities() []string {
	spans := t.Drain()
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Identity()
	}
	sort.Strings(out)
	return out
}
