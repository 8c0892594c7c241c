// Package obs is the repository's zero-dependency observability layer:
// an atomic metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus-text and JSON export, slog-based
// structured logging with a shared flag helper for the cmd/ binaries,
// lightweight span tracing exported as JSONL, and an HTTP debug
// handler serving /metrics, /healthz, and net/http/pprof.
//
// Determinism contract: the instrumented packages preserve PR 1's
// engine guarantee — counters and non-timing histogram bucket counts
// are bit-identical for any worker count, because every increment is
// an integer derived from the deterministic computation itself (nodes
// expanded, deferment slots, score buckets), never from wall clock or
// scheduling order. Timing histograms (name suffix "_ms") and gauges
// (last-write-wins instantaneous values) are exempt; Snapshot.
// DiffDeterministic encodes exactly this comparison.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. All methods are safe
// for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (last write wins). All
// methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: bucket i counts observations v with v <= Bounds[i], and one
// implicit +Inf bucket catches the rest. Bucket counts are exact
// atomic integers; Sum is an order-dependent float and therefore
// excluded from the bit-level determinism contract (compare it with a
// tolerance instead).
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1
	sum    Gauge           // running Σv via atomic float add

	exMu      sync.Mutex
	exemplars []exemplar // lazily len(counts); slowest observation per bucket
}

// exemplar is the retained worst observation of one bucket.
type exemplar struct {
	value float64
	trace string
	set   bool
}

// Exemplar links a bucket's slowest retained observation to the trace
// that produced it, so an operator can jump from a latency histogram in
// /metrics JSON straight to the worst day's trace in enkitrace.
type Exemplar struct {
	Bucket  int     `json:"bucket"` // index into Buckets; the last is +Inf
	Value   float64 `json:"value"`
	TraceID string  `json:"traceId"`
}

// NewHistogram builds a histogram over the given ascending bucket
// upper bounds. It panics on empty or unsorted bounds: bucket layouts
// are compile-time constants (see names.go), not runtime input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the le-bucket
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// batchBuckets is the most buckets ObserveBatch counts on the stack;
// every layout in names.go fits.
const batchBuckets = 32

// ObserveBatch records every value in vs as Observe would, one by one:
// the same bucket counts, and the same sum up to the order of its float
// additions. It counts the buckets on the stack and then makes one
// atomic add per non-empty bucket and one for the sum, so recording a
// neighbourhood's scores contends once per bucket, not once per
// household. The batch is allocation-free.
func (h *Histogram) ObserveBatch(vs []float64) {
	if len(vs) == 0 {
		return
	}
	var counts [batchBuckets]uint64
	if len(h.counts) > len(counts) {
		for _, v := range vs {
			h.Observe(v)
		}
		return
	}
	var sum float64
	for _, v := range vs {
		counts[sort.SearchFloat64s(h.bounds, v)]++
		sum += v
	}
	for i, n := range counts[:len(h.counts)] {
		if n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.sum.Add(sum)
}

// ObserveExemplar records one value and, when traceID is non-empty,
// keeps it as the bucket's exemplar if it is the slowest observation the
// bucket has seen. Exemplars ride on Snapshot (JSON only, never the
// Prometheus text format) and are excluded from the determinism
// contract — they identify wall-clock extremes, which are timing facts.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	if traceID == "" {
		return
	}
	h.exMu.Lock()
	if h.exemplars == nil {
		h.exemplars = make([]exemplar, len(h.counts))
	}
	if e := &h.exemplars[i]; !e.set || v > e.value {
		*e = exemplar{value: v, trace: traceID, set: true}
	}
	h.exMu.Unlock()
}

// Exemplars returns the retained per-bucket exemplars in bucket order.
// Nil when no observation ever carried a trace ID.
func (h *Histogram) Exemplars() []Exemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.exemplars == nil {
		return nil
	}
	var out []Exemplar
	for i := range h.exemplars {
		if e := h.exemplars[i]; e.set {
			out = append(out, Exemplar{Bucket: i, Value: e.value, TraceID: e.trace})
		}
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the per-bucket counts, including the final
// +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket containing the target rank, assuming
// non-negative observations (the lower edge of the first bucket is 0).
// Observations landing in the +Inf bucket clamp to the largest finite
// bound. Returns NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, b := range h.bounds {
		n := float64(h.counts[i].Load())
		if cum+n >= rank && n > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			return lower + (b-lower)*(rank-cum)/n
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}
