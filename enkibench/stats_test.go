package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailPercentileHasTenSamplesAbove(t *testing.T) {
	for _, tc := range []struct {
		n        int
		wantPct  int
		wantTail float64
	}{
		{n: 1000, wantPct: 99, wantTail: 990},
		{n: 100, wantPct: 90, wantTail: 90},
		{n: 99, wantPct: 89, wantTail: 89},
		{n: 50, wantPct: 80, wantTail: 40},
		{n: 20, wantPct: 50, wantTail: 10},
	} {
		pct, v, ok := tailPercentile(seq(tc.n))
		if !ok || pct != tc.wantPct || v != tc.wantTail {
			t.Errorf("n=%d: tail p%d = %g (ok %v), want p%d = %g", tc.n, pct, v, ok, tc.wantPct, tc.wantTail)
		}
		_, above := nearestRank(seq(tc.n), pct)
		if above < minTailAbove {
			t.Errorf("n=%d: p%d has %d samples above it", tc.n, pct, above)
		}
		if _, above := nearestRank(seq(tc.n), pct+1); pct < 99 && above >= minTailAbove {
			t.Errorf("n=%d: p%d also has %d samples above it, so p%d is not the highest", tc.n, pct+1, above, pct)
		}
	}
	if _, _, ok := tailPercentile(seq(19)); ok {
		t.Error("19 samples: want no tail percentile")
	}
	if v, err := p90(seq(100)); err != nil || v != 90 {
		t.Errorf("p90 of 100 samples = %g, %v; want 90", v, err)
	}
	if _, err := p90(seq(99)); err == nil {
		t.Error("p90 of 99 samples: want an error, only 9 lie above it")
	}
}

func TestDayMetricsPrintsSampleCount(t *testing.T) {
	res := newResult("quorum", false)
	if err := dayMetrics(res, seq(120), 120*30, 1000, 0, false); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.write(&out, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "120 timed days") || !strings.Contains(out.String(), "p91 = ") {
		t.Errorf("table does not print the sample count and tail percentile:\n%s", out.String())
	}
	if got := res.values["day_ms.p50"]; got != 60.5 {
		t.Errorf("day_ms.p50 = %g, want 60.5", got)
	}
	if got := res.values["day_ms.p90"]; got != 108 {
		t.Errorf("day_ms.p90 = %g, want 108", got)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 40}, // overlap: 10..40 covered once
		{50, 60}, {55, 58}, // nested
		{90, 120}, // clipped to the parent
		{-5, 2},   // clipped to the parent
		{70, 70},  // empty
	}
	// Covered: 0..2, 10..40, 50..60, 90..100 = 2+30+10+10 = 52.
	if got := selfTime(parent, children); got != 48 {
		t.Errorf("selfTime = %d, want 48", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := unionLength([]interval{{0, 10}, {10, 20}, {5, 15}}); got != 20 {
		t.Errorf("unionLength = %d, want 20", got)
	}
}

func TestMetricNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name := d.name
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
		if seen[name] {
			t.Errorf("metric name %q is used twice", name)
		}
		seen[name] = true
	}
}

// benchmarkFile is the subset of BENCHMARK.json the catalogue must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(shapes) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(shapes))
	}
	for _, w := range bf.Workloads {
		sh, ok := shapes[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
			continue
		}
		// The why records the fixed shape.
		for _, part := range strings.Fields(shapeNote(sh)) {
			if !strings.Contains(w.Why, part) {
				t.Errorf("workload %s: why %q does not record %q", w.Name, w.Why, part)
			}
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		}
	}
	if len(bf.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the JSON line prints %d", len(bf.EndToEnd), len(gated))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != gated[i].name || m.Unit != gated[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark prints %s %s", i, m.Name, m.Unit, gated[i].name, gated[i].unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the traced JSON line prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
