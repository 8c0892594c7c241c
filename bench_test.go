package enki

// The benchmark harness: one benchmark per paper table/figure plus the
// ablations DESIGN.md calls out. Run everything with
//
//	go test -bench=. -benchmem .
//
// Figures 4-6 share the Section VI sweep, so they appear both as
// end-to-end sweep benches (BenchmarkFigure*) and as per-scheduler
// micro-benches that expose the greedy-vs-optimal time gap the paper
// highlights (~600x at n ≥ 40).

import (
	"fmt"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/experiment"
	"enki/internal/mechanism"
	"enki/internal/obs"
	"enki/internal/pricing"
	"enki/internal/profile"
	"enki/internal/sched"
	"enki/internal/solver"
	"enki/internal/stats"
	"enki/internal/study"
	"enki/internal/vcg"
)

var benchPricer = pricing.Quadratic{Sigma: pricing.DefaultSigma}

func benchReports(b *testing.B, seed uint64, n int) []core.Report {
	b.Helper()
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(seed))
	if err != nil {
		b.Fatal(err)
	}
	return profile.WideReports(gen.DrawN(n))
}

func benchDay(b *testing.B, seed uint64, n int) mechanism.Day {
	b.Helper()
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(seed))
	if err != nil {
		b.Fatal(err)
	}
	profiles := gen.DrawN(n)
	households := make([]core.Household, n)
	reports := make([]core.Report, n)
	for i, p := range profiles {
		households[i] = core.TruthfulHousehold(core.HouseholdID(i), p.TypeWide())
		reports[i] = core.Report{ID: core.HouseholdID(i), Pref: p.Wide}
	}
	greedy := &sched.Greedy{Pricer: benchPricer, Rating: 2}
	assignments, err := greedy.Allocate(reports)
	if err != nil {
		b.Fatal(err)
	}
	day := mechanism.Day{
		Households:   households,
		Assignments:  make([]core.Interval, n),
		Consumptions: make([]core.Interval, n),
		Rating:       2,
	}
	for i, a := range assignments {
		day.Assignments[i] = a.Interval
		day.Consumptions[i] = a.Interval
	}
	return day
}

// --- Figures 4 & 5: PAR and neighborhood cost (one sweep round) ---

// BenchmarkFigure4PAR measures one full Figure 4/5 data point: draw a
// 30-household day, allocate with both schedulers, compute PAR and
// cost.
func BenchmarkFigure4PAR(b *testing.B) {
	cfg := experiment.DefaultConfig()
	cfg.Populations = []int{30}
	cfg.Rounds = 1
	cfg.OptimalOptions = solver.Options{TimeLimit: 100 * time.Millisecond, RelGap: 1e-4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiment.RunSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweep is the parallel-engine workload: a full sweep with enough
// rounds per population that the worker pool has real work to spread.
func benchSweep(b *testing.B, workers int) {
	cfg := experiment.DefaultConfig()
	cfg.Populations = []int{10, 20, 30}
	cfg.Rounds = 4
	cfg.Workers = workers
	cfg.OptimalOptions = solver.Options{TimeLimit: 50 * time.Millisecond, RelGap: 1e-4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial is the Workers:1 reference path.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the same sweep on the default pool
// (GOMAXPROCS workers); compare against BenchmarkSweepSerial for the
// engine's speedup.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkFigure5Cost measures the neighborhood-cost computation for a
// settled 50-household day (the Figure 5 metric).
func BenchmarkFigure5Cost(b *testing.B) {
	day := benchDay(b, 5, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pricing.CostOfIntervals(benchPricer, day.Consumptions, day.Rating)
	}
}

// --- Figure 6: scheduling time, greedy vs optimal ---

func benchGreedy(b *testing.B, n int) {
	reports := benchReports(b, uint64(n), n)
	g := &sched.Greedy{Pricer: benchPricer, Rating: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Allocate(reports); err != nil {
			b.Fatal(err)
		}
	}
}

func benchOptimal(b *testing.B, n int, opts solver.Options) {
	reports := benchReports(b, uint64(n), n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &sched.Optimal{Pricer: benchPricer, Rating: 2, Options: opts}
		if _, err := o.Allocate(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyAllocate10 and friends are the Enki series of Figure 6.
func BenchmarkGreedyAllocate10(b *testing.B) { benchGreedy(b, 10) }

// BenchmarkGreedyAllocate30 is the Enki mid-population point.
func BenchmarkGreedyAllocate30(b *testing.B) { benchGreedy(b, 30) }

// BenchmarkGreedyAllocate50 is the Enki series' largest point.
func BenchmarkGreedyAllocate50(b *testing.B) { benchGreedy(b, 50) }

// BenchmarkGreedyAllocate1000 is a city-sized neighbourhood (enkibench
// city settles ~781 households per shard), past the size from which the
// Sec. IV-C order switches to its radix sort.
func BenchmarkGreedyAllocate1000(b *testing.B) { benchGreedy(b, 1000) }

// BenchmarkOptimalAllocate10 solves a 10-household day exactly.
func BenchmarkOptimalAllocate10(b *testing.B) { benchOptimal(b, 10, solver.Options{}) }

// BenchmarkOptimalAllocate20 solves a 20-household day exactly — at
// this size the greedy-vs-optimal gap already exceeds the paper's 600x.
func BenchmarkOptimalAllocate20(b *testing.B) {
	benchOptimal(b, 20, solver.Options{RelGap: 1e-4})
}

// BenchmarkOptimalAllocate30 solves a 30-household day to the CPLEX
// default gap — tractable only because of the solver's bound cascade
// and candidate fixing.
func BenchmarkOptimalAllocate30(b *testing.B) {
	benchOptimal(b, 30, solver.Options{RelGap: 1e-4})
}

// BenchmarkOptimalAllocate50 solves the Figure 6 right edge to a 0.1%
// gap. The looser setting is deliberate: the quadratic cost lattice is
// coarse (σ·g² = 1.2 per step), and at n=50 a 1e-4 gap demands proving
// no solution exists one lattice step below the optimum — a
// multi-minute enumeration — while 1e-3 closes with a real search
// (~half a million nodes) that still lands on the true optimum. The
// budgeted variant below is what the experiment harness actually runs.
func BenchmarkOptimalAllocate50(b *testing.B) {
	benchOptimal(b, 50, solver.Options{RelGap: 1e-3, Workers: 0})
}

// BenchmarkOptimalAllocate50Budgeted is the Figure 6 right edge: the
// CPLEX-substitute runs under the experiment harness's default budget.
func BenchmarkOptimalAllocate50Budgeted(b *testing.B) {
	benchOptimal(b, 50, solver.Options{TimeLimit: 100 * time.Millisecond, RelGap: 1e-4})
}

// BenchmarkFigure6SchedulingTime measures a full Figure 6 data point at
// n = 20: both schedulers on the same day.
func BenchmarkFigure6SchedulingTime(b *testing.B) {
	reports := benchReports(b, 6, 20)
	g := &sched.Greedy{Pricer: benchPricer, Rating: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Allocate(reports); err != nil {
			b.Fatal(err)
		}
		o := &sched.Optimal{Pricer: benchPricer, Rating: 2, Options: solver.Options{RelGap: 1e-4}}
		if _, err := o.Allocate(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: best response of one household ---

// BenchmarkFigure7BestResponse measures one utility evaluation of the
// Figure 7 exploration: a 50-household greedy allocation plus a full
// settlement for a single candidate report.
func BenchmarkFigure7BestResponse(b *testing.B) {
	cfg := experiment.DefaultConfig()
	fcfg := experiment.DefaultFig7Config()
	fcfg.Repeats = 1
	fcfg.Limits = core.Interval{Begin: 18, End: 20} // single candidate: the truth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunFigure7(cfg, fcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables II-IV and Figures 8-9: the user study ---

// BenchmarkTableIIUserStudy runs the full two-treatment study (8
// sessions, 16 rounds, 20 subjects) and computes every Section VII
// metric.
func BenchmarkTableIIUserStudy(b *testing.B) {
	cfg := experiment.DefaultConfig()
	scfg := study.DefaultStudyConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiment.RunUserStudy(cfg, scfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIIMannWhitney measures the Table III test at the
// paper's sample size.
func BenchmarkTableIIIMannWhitney(b *testing.B) {
	rng := dist.New(9)
	s1 := make([]float64, 20)
	s2 := make([]float64, 20)
	for i := range s1 {
		s1[i] = float64(rng.Intn(16))
		s2[i] = 8
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.MannWhitneyU(s1, s2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Theorems 1, 5, 6: settlement and baselines ---

// BenchmarkSettlement measures a full Eq. 4-8 settlement for a
// 50-household day.
func BenchmarkSettlement(b *testing.B) {
	day := benchDay(b, 7, 50)
	cfg := mechanism.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mechanism.Settle(benchPricer, cfg, day); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnkiVsProportional settles the same day under Enki and under
// the no-Enki proportional baseline (the Theorem 5/6 comparison).
func BenchmarkEnkiVsProportional(b *testing.B) {
	day := benchDay(b, 8, 50)
	cfg := mechanism.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mechanism.Settle(benchPricer, cfg, day); err != nil {
			b.Fatal(err)
		}
		if _, err := mechanism.SettleProportional(benchPricer, cfg.Xi, day); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVCGPayments measures the Samadi-style VCG comparator: n+1
// optimal solves for an 8-household day — the intractability Enki's
// closed-form payments avoid (compare BenchmarkSettlement).
func BenchmarkVCGPayments(b *testing.B) {
	reports := benchReports(b, 11, 8)
	m := &vcg.Mechanism{Pricer: benchPricer, Rating: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationOrderingFlexibility is Enki's increasing-flexibility
// processing order.
func BenchmarkAblationOrderingFlexibility(b *testing.B) { benchGreedy(b, 30) }

// BenchmarkAblationOrderingWidestFirst reverses Enki's order.
func BenchmarkAblationOrderingWidestFirst(b *testing.B) {
	reports := benchReports(b, 30, 30)
	s := &sched.GreedyOrdered{Pricer: benchPricer, Rating: 2, Order: sched.OrderWidestFirst}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Allocate(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOrderingReport processes households in arrival order.
func BenchmarkAblationOrderingReport(b *testing.B) {
	reports := benchReports(b, 30, 30)
	s := &sched.GreedyOrdered{Pricer: benchPricer, Rating: 2, Order: sched.OrderReport}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Allocate(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPricingQuadratic settles under Eq. 1 pricing.
func BenchmarkAblationPricingQuadratic(b *testing.B) {
	day := benchDay(b, 13, 30)
	cfg := mechanism.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mechanism.Settle(benchPricer, cfg, day); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPricingPiecewise settles under the two-step convex
// tariff the paper mentions as the Eq. 1 alternative.
func BenchmarkAblationPricingPiecewise(b *testing.B) {
	tariff, err := pricing.NewPiecewise([]pricing.Step{{Threshold: 0, Rate: 0.5}, {Threshold: 8, Rate: 3}})
	if err != nil {
		b.Fatal(err)
	}
	day := benchDay(b, 13, 30)
	cfg := mechanism.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mechanism.Settle(tariff, cfg, day); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLocalSearch measures the decentralized best-response
// alternative to Enki's one-shot greedy.
func BenchmarkAblationLocalSearch(b *testing.B) {
	reports := benchReports(b, 17, 30)
	s := &sched.LocalSearch{Base: sched.Earliest{}, Pricer: benchPricer, Rating: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Allocate(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benches ---

// BenchmarkFlexibilityScores measures Eq. 4 over 50 households.
func BenchmarkFlexibilityScores(b *testing.B) {
	reports := benchReports(b, 19, 50)
	prefs := make([]core.Preference, len(reports))
	for i, r := range reports {
		prefs[i] = r.Pref
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mechanism.FlexibilityScores(prefs)
	}
}

// BenchmarkFederatedSnapshot measures the operator plane's merge path:
// assembling the cluster-wide FederatedSnapshot from 128 shard-sized
// sources, each carrying the counter, gauge, and settle-latency series
// a real shard reports. This is what every /api/v1/federation scrape
// and every enkiops poll pays, so its allocs/op is gated alongside the
// allocator benches in make bench-check.
func BenchmarkFederatedSnapshot(b *testing.B) {
	fed := obs.NewFederation(obs.NewRegistry())
	for s := 0; s < 128; s++ {
		reg := obs.NewRegistry()
		reg.Counter(obs.MetricClusterShardsSettled).Add(uint64(30 + s))
		reg.Counter(obs.MetricClusterHouseholdsSettled).Add(uint64(8 * (30 + s)))
		reg.Counter(obs.MetricClusterSubstitutionsTotal).Add(uint64(s % 3))
		reg.Gauge(obs.MetricMechBudgetResidual).Set(0)
		reg.Gauge(obs.MetricMechDayPAR).Set(1.2)
		h := reg.Histogram(obs.MetricClusterShardSettleMS, obs.LatencyBucketsMS)
		for d := 0; d < 30; d++ {
			h.Observe(float64(1+(s+d)%7) * 0.3)
		}
		fed.Report(&obs.MetricsReport{
			Source:   fmt.Sprintf("shard/%04d", s),
			Snapshot: reg.Snapshot(),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := fed.Snapshot()
		if len(snap.Sources) != 128 {
			b.Fatalf("sources = %d", len(snap.Sources))
		}
	}
}

// BenchmarkRecorderSteadyState measures one flight-recorder event on
// the hot path every wire frame pays when -bundle-dir is set: an
// enabled ring, cached counter handles, no per-event allocation. The
// allocs/op figure is gated alongside the allocator benches in make
// bench-check — a regression here taxes every settled household.
func BenchmarkRecorderSteadyState(b *testing.B) {
	rec := obs.NewRecorder()
	rec.Enable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(obs.Event{
			Kind:   obs.EventWireFrame,
			Shard:  i & 7,
			Codec:  "binary",
			Action: "sent",
			N:      64,
			Bytes:  1 << 10,
		})
	}
}

// BenchmarkProfileDraw measures the Section VI workload generator.
func BenchmarkProfileDraw(b *testing.B) {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(21))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Draw()
	}
}
