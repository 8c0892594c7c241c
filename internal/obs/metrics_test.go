package obs

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	// Exercised under -race in CI: 16 goroutines hammer one counter
	// and one labeled counter through the registry lookup path.
	reg := NewRegistry()
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				reg.Counter(MetricSolverNodesExpanded).Inc()
				reg.Counter(MetricSchedAllocateTotal, LabelScheduler, "enki-greedy").Add(2)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter(MetricSolverNodesExpanded).Value(); got != goroutines*per {
		t.Errorf("plain counter = %d, want %d", got, goroutines*per)
	}
	if got := reg.Counter(MetricSchedAllocateTotal, LabelScheduler, "enki-greedy").Value(); got != 2*goroutines*per {
		t.Errorf("labeled counter = %d, want %d", got, 2*goroutines*per)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != 0 {
		t.Errorf("gauge = %g after balanced adds, want 0", v)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	// le semantics: a value exactly on a bound lands in that bucket.
	for _, v := range []float64{0, 0.5, 1} { // <= 1
		h.Observe(v)
	}
	for _, v := range []float64{1.0000001, 2} { // (1, 2]
		h.Observe(v)
	}
	h.Observe(3.7) // (2, 5]
	h.Observe(99)  // +Inf
	want := []uint64{3, 2, 1, 1}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	wantSum := 0.0 + 0.5 + 1 + 1.0000001 + 2 + 3.7 + 99
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("sum = %g, want %g", h.Sum(), wantSum)
	}
}

// TestHistogramObserveBatchMatchesObserve: a batch counts every value
// into the bucket Observe would, and its sum stays within
// DiffDeterministic's tolerance of Observe's, on random values, values
// on the bounds and on both sides of the outermost ones, ±Inf and NaN —
// for the mechanism's layouts and for one too wide for the batch's
// stack counts. Two batches into one histogram stand for two shards.
func TestHistogramObserveBatchMatchesObserve(t *testing.T) {
	wide := make([]float64, batchBuckets+8)
	for i := range wide {
		wide[i] = float64(i) / 4
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, bounds := range [][]float64{ScoreBuckets, DollarBuckets, wide} {
		top := bounds[len(bounds)-1]
		values := append([]float64{-1, 0, math.Nextafter(top, math.Inf(1)), 10 * top}, bounds...)
		for range 1000 {
			values = append(values, rng.Float64()*1.2*top)
		}
		for _, special := range [][]float64{nil, {math.Inf(1)}, {math.Inf(-1)}, {math.NaN()}, {math.Inf(1), math.Inf(-1)}} {
			vs := append(slices.Clone(values), special...)
			one, batch := NewHistogram(bounds), NewHistogram(bounds)
			for _, v := range vs {
				one.Observe(v)
			}
			batch.ObserveBatch(vs[:len(vs)/2])
			batch.ObserveBatch(vs[len(vs)/2:])
			if a, b := one.BucketCounts(), batch.BucketCounts(); !slices.Equal(a, b) {
				t.Errorf("%d bounds, %v: batch buckets %v, Observe's %v", len(bounds), special, b, a)
			}
			if a, b := one.Sum(), batch.Sum(); !almostEqual(a, b) && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Errorf("%d bounds, %v: batch sum %g, Observe's %g", len(bounds), special, b, a)
			}
		}
	}
}

// TestHistogramObserveBatchAllocs: a batch counts on the stack.
func TestHistogramObserveBatchAllocs(t *testing.T) {
	h := NewHistogram(ScoreBuckets)
	vs := []float64{0.01, 0.2, 0.4, 1, 1.7, 2.5, 99}
	if allocs := testing.AllocsPerRun(100, func() { h.ObserveBatch(vs) }); allocs != 0 {
		t.Errorf("ObserveBatch made %.1f allocations, want 0", allocs)
	}
}

func TestHistogramQuantileAgainstExact(t *testing.T) {
	// 1000 uniform observations over (0, 10] with fine buckets: the
	// interpolated quantile must sit within one bucket width of the
	// exact empirical quantile.
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i+1) / 10
	}
	h := NewHistogram(bounds)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 100) // 0.01 .. 10.00
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		exact := 10 * q
		got := h.Quantile(q)
		if math.Abs(got-exact) > 0.1+1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g ± bucket width 0.1", q, got, exact)
		}
	}
	if got := h.Quantile(1); math.Abs(got-10) > 1e-9 {
		t.Errorf("Quantile(1) = %g, want 10", got)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Observe(100) // +Inf bucket only
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("overflow-only quantile = %g, want clamp to 2", got)
	}
}

func TestSnapshotDeterministicAcrossRegistrationOrder(t *testing.T) {
	build := func(order []int) Snapshot {
		reg := NewRegistry()
		ops := []func(){
			func() { reg.Counter(MetricSolverNodesExpanded).Add(7) },
			func() { reg.Gauge(MetricMechBudgetResidual).Set(1.5) },
			func() { reg.Histogram(MetricMechPaymentDollars, DollarBuckets).Observe(3) },
			func() { reg.Counter(MetricSchedAllocateTotal, LabelScheduler, "optimal").Inc() },
		}
		for _, i := range order {
			ops[i]()
		}
		return reg.Snapshot()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if diffs := a.DiffDeterministic(b); len(diffs) != 0 {
		t.Errorf("snapshots differ across registration order: %v", diffs)
	}
	var bufA, bufB strings.Builder
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Error("JSON snapshots differ across registration order")
	}
}

func TestDiffDeterministicSkipsTimingAndGauges(t *testing.T) {
	regA, regB := NewRegistry(), NewRegistry()
	regA.Histogram(MetricSchedAllocateLatencyMS, LatencyBucketsMS).Observe(5)
	regB.Histogram(MetricSchedAllocateLatencyMS, LatencyBucketsMS).Observe(500)
	regA.Gauge(MetricParallelQueueDepth).Set(4)
	regB.Gauge(MetricParallelQueueDepth).Set(0)
	if diffs := regA.Snapshot().DiffDeterministic(regB.Snapshot()); len(diffs) != 0 {
		t.Errorf("timing histograms and gauges should be exempt, got %v", diffs)
	}
	regA.Counter(MetricNetDaysTotal).Inc()
	if diffs := regA.Snapshot().DiffDeterministic(regB.Snapshot()); len(diffs) != 1 {
		t.Errorf("counter mismatch should be reported, got %v", diffs)
	}
}

func TestLabelOrderCanonicalization(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricNetMessagesTotal, "a", "1", "b", "2").Inc()
	reg.Counter(MetricNetMessagesTotal, "b", "2", "a", "1").Inc()
	if got := reg.Counter(MetricNetMessagesTotal, "a", "1", "b", "2").Value(); got != 2 {
		t.Errorf("label order should canonicalize to one series, got %d", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricNetMessagesTotal, LabelDirection, DirectionSent).Add(3)
	reg.Gauge(MetricMechDayPAR).Set(1.25)
	h := reg.Histogram(MetricMechPaymentDollars, []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE enki_netproto_messages_total counter",
		`enki_netproto_messages_total{direction="sent"} 3`,
		"# TYPE enki_mechanism_day_par gauge",
		"enki_mechanism_day_par 1.25",
		"# TYPE enki_mechanism_payment_dollars histogram",
		`enki_mechanism_payment_dollars{le="1"} 1`,
		`enki_mechanism_payment_dollars{le="10"} 2`,
		`enki_mechanism_payment_dollars{le="+Inf"} 3`,
		"enki_mechanism_payment_dollars_sum 55.5",
		"enki_mechanism_payment_dollars_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

// TestWritePrometheusOneTypeLinePerFamily: multiple series of one
// metric family share a single # TYPE header.
func TestWritePrometheusOneTypeLinePerFamily(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricNetMessagesTotal, LabelDirection, DirectionSent).Inc()
	reg.Counter(MetricNetMessagesTotal, LabelDirection, DirectionReceived).Inc()
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	header := "# TYPE enki_netproto_messages_total counter"
	if got := strings.Count(buf.String(), header); got != 1 {
		t.Errorf("TYPE header appears %d times, want 1:\n%s", got, buf.String())
	}
}

func TestRegistryReset(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricNetDaysTotal).Inc()
	reg.Reset()
	if got := reg.Counter(MetricNetDaysTotal).Value(); got != 0 {
		t.Errorf("counter after reset = %d, want 0", got)
	}
}
