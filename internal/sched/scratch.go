package sched

import (
	"sync"

	"enki/internal/core"
	"enki/internal/obs"
)

// Scratch holds the reusable working buffers of one Greedy allocation:
// the preference mirror, flexibility scores, the sort keys and the
// radix sort's second key buffer, the processing order, the chosen
// intervals, and the sliding-window deque of the incremental peak
// tracker.
//
// Ownership contract: a Scratch belongs to exactly one Allocate call at
// a time. Greedy.AllocateInto callers that pass their own Scratch must
// not share it between concurrent calls — the allocator overwrites
// every buffer unconditionally and never reads stale contents, so reuse
// across sequential calls (of any size) is safe and allocation-free
// once the buffers have grown to the high-water population. When no
// Scratch is supplied, Greedy.Allocate borrows one from an internal
// sync.Pool, which makes the plain API goroutine-safe and still
// allocation-free in steady state.
type Scratch struct {
	prefs     []core.Preference
	flex      []float64
	keys      []orderKey
	keyBuf    []orderKey // radixSort's second buffer
	order     []int
	intervals []core.Interval
	ids       []core.HouseholdID
	deque     [core.HoursPerDay]int
}

// grow resizes every buffer to n entries, reusing capacity.
func (s *Scratch) grow(n int) {
	if cap(s.prefs) < n {
		s.prefs = make([]core.Preference, n)
		s.flex = make([]float64, n)
		s.keys = make([]orderKey, n)
		s.keyBuf = make([]orderKey, n)
		s.order = make([]int, n)
		s.intervals = make([]core.Interval, n)
		s.ids = make([]core.HouseholdID, n)
	}
	s.prefs = s.prefs[:n]
	s.flex = s.flex[:n]
	s.keys = s.keys[:n]
	s.keyBuf = s.keyBuf[:n]
	s.order = s.order[:n]
	s.intervals = s.intervals[:n]
	s.ids = s.ids[:n]
}

// scratchPool recycles Scratch buffers across Allocate calls so the
// steady state performs no per-call buffer allocations.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// allocMetrics caches the metric handles one scheduler records into.
// Looking handles up through the registry builds a label-qualified key
// string per call; caching them keyed by the registry generation keeps
// the hot path allocation-free while staying coherent with test-time
// registry Resets.
type allocMetrics struct {
	gen      uint64
	total    *obs.Counter
	latency  *obs.Histogram
	slots    *obs.Counter
	deferred *obs.Counter
}

var (
	allocMetricsMu    sync.Mutex
	allocMetricsCache = make(map[string]*allocMetrics)
)

// metricsFor returns the cached handles for a scheduler name,
// re-registering them when the registry generation moved (i.e. after a
// Reset). Scheduler names are compile-time constants, so the map lookup
// does not allocate.
func metricsFor(scheduler string) *allocMetrics {
	reg := obs.Default()
	gen := reg.Generation()
	allocMetricsMu.Lock()
	defer allocMetricsMu.Unlock()
	m := allocMetricsCache[scheduler]
	if m == nil || m.gen != gen {
		m = &allocMetrics{
			gen:      gen,
			total:    reg.Counter(obs.MetricSchedAllocateTotal, obs.LabelScheduler, scheduler),
			latency:  reg.Histogram(obs.MetricSchedAllocateLatencyMS, obs.LatencyBucketsMS, obs.LabelScheduler, scheduler),
			slots:    reg.Counter(obs.MetricSchedDefermentSlots, obs.LabelScheduler, scheduler),
			deferred: reg.Counter(obs.MetricSchedDeferredHouseholds, obs.LabelScheduler, scheduler),
		}
		allocMetricsCache[scheduler] = m
	}
	return m
}
