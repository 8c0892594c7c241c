package mechanism_test

import (
	"math"
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/pricing"
	"enki/internal/profile"
	"enki/internal/sched"
)

var quad = pricing.Quadratic{Sigma: pricing.DefaultSigma}

// buildDay assembles a compliant day for n truthful households drawn
// from the Section VI profile model, allocated greedily.
func buildDay(t *testing.T, seed uint64, n int) mechanism.Day {
	t.Helper()
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	profiles := gen.DrawN(n)
	households := make([]core.Household, n)
	reports := make([]core.Report, n)
	for i, p := range profiles {
		households[i] = core.TruthfulHousehold(core.HouseholdID(i), p.TypeWide())
		reports[i] = core.Report{ID: core.HouseholdID(i), Pref: p.Wide}
	}
	greedy := &sched.Greedy{Pricer: quad, Rating: 2}
	assignments, err := greedy.Allocate(reports)
	if err != nil {
		t.Fatal(err)
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

func TestDayValidate(t *testing.T) {
	day := buildDay(t, 1, 5)
	if err := day.Validate(); err != nil {
		t.Fatalf("valid day rejected: %v", err)
	}
	bad := day
	bad.Rating = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero rating should be rejected")
	}
	bad = day
	bad.Assignments = bad.Assignments[:len(bad.Assignments)-1]
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch should be rejected")
	}
	bad = buildDay(t, 1, 5)
	bad.Assignments[0] = core.Interval{Begin: 0, End: bad.Households[0].Reported.Duration}
	if bad.Households[0].Reported.Admits(bad.Assignments[0]) {
		t.Skip("random draw admits hour 0; pick a different fixture")
	}
	if err := bad.Validate(); err == nil {
		t.Error("assignment outside the reported window should be rejected")
	}
	bad = buildDay(t, 1, 5)
	// The reported duration, ending one hour past the day.
	bad.Consumptions[0] = core.Interval{Begin: core.HoursPerDay + 1 - bad.Households[0].Reported.Duration, End: core.HoursPerDay + 1}
	if err := bad.Validate(); err == nil {
		t.Errorf("consumption %v past the end of the day should be rejected", bad.Consumptions[0])
	}
	empty := mechanism.Day{}
	if err := empty.Validate(); err == nil {
		t.Error("empty day should be rejected")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := mechanism.DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (mechanism.Config{K: 0, Xi: 1.2}).Validate(); err == nil {
		t.Error("k = 0 should be rejected")
	}
	if err := (mechanism.Config{K: 1, Xi: 0.99}).Validate(); err == nil {
		t.Error("xi < 1 should be rejected")
	}
}

// TestBudgetBalanceTheorem1 verifies Theorem 1 across random days and
// ξ values: U_c = Σp_i − κ(ω) = (ξ − 1)·κ(ω) ≥ 0 exactly.
func TestBudgetBalanceTheorem1(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		day := buildDay(t, seed, 4+int(seed%20))
		for _, xi := range []float64{1, 1.2, 2} {
			cfg := mechanism.Config{K: 1, Xi: xi}
			s, err := mechanism.Settle(quad, cfg, day)
			if err != nil {
				t.Fatal(err)
			}
			want := (xi - 1) * s.Cost
			if math.Abs(s.CenterUtility()-want) > 1e-6 {
				t.Errorf("seed %d ξ=%g: center utility %g, want (ξ−1)κ = %g",
					seed, xi, s.CenterUtility(), want)
			}
			if s.CenterUtility() < -1e-9 {
				t.Errorf("seed %d ξ=%g: center in deficit: %g", seed, xi, s.CenterUtility())
			}
		}
	}
}

// TestBudgetBalanceWithDefectors repeats Theorem 1 on days that include
// misreporting defectors: balance must hold regardless of behavior.
func TestBudgetBalanceWithDefectors(t *testing.T) {
	for seed := uint64(30); seed <= 40; seed++ {
		day := buildDay(t, seed, 10)
		rng := dist.New(seed * 77)
		// A third of the households defect to a random in-day slot of
		// the same duration.
		for i := range day.Consumptions {
			if rng.Bool(0.33) {
				v := day.Consumptions[i].Len()
				start := rng.Intn(core.HoursPerDay - v)
				day.Consumptions[i] = core.Interval{Begin: start, End: start + v}
			}
		}
		s, err := mechanism.Settle(quad, mechanism.DefaultConfig(), day)
		if err != nil {
			t.Fatal(err)
		}
		want := (mechanism.DefaultXi - 1) * s.Cost
		if math.Abs(s.CenterUtility()-want) > 1e-6 {
			t.Errorf("seed %d: center utility %g, want %g", seed, s.CenterUtility(), want)
		}
	}
}

// TestWeakIncentiveCompatibilityScenario reproduces the Section V-B
// two-scenario argument: household A with truth (18,20,2) either
// misreports (14,20,2) and defects back to (18,20), or reports
// truthfully — with identical consumption, the truthful scenario yields
// at least the misreporting utility.
func TestWeakIncentiveCompatibilityScenario(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		truth := core.MustPreference(18, 20, 2)
		misreport := core.MustPreference(14, 20, 2)
		rho := 5.0

		utility := func(report core.Preference) float64 {
			gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			others := gen.DrawN(49)
			reports := []core.Report{{ID: 0, Pref: report}}
			households := []core.Household{{
				ID:       0,
				Type:     core.Type{True: truth, ValuationFactor: rho},
				Reported: report,
			}}
			for i, o := range others {
				id := core.HouseholdID(i + 1)
				reports = append(reports, core.Report{ID: id, Pref: o.Wide})
				households = append(households, core.TruthfulHousehold(id, o.TypeWide()))
			}
			greedy := &sched.Greedy{Pricer: quad, Rating: 2}
			assignments, err := greedy.Allocate(reports)
			if err != nil {
				t.Fatal(err)
			}
			day := mechanism.Day{
				Households:   households,
				Assignments:  make([]core.Interval, len(households)),
				Consumptions: make([]core.Interval, len(households)),
				Rating:       2,
			}
			for i, a := range assignments {
				day.Assignments[i] = a.Interval
				day.Consumptions[i] = a.Interval
			}
			// Household 0 consumes within its true window regardless.
			day.Consumptions[0] = core.ClosestConsumption(truth, day.Assignments[0])
			s, err := mechanism.Settle(quad, mechanism.DefaultConfig(), day)
			if err != nil {
				t.Fatal(err)
			}
			return s.Utilities[0]
		}

		truthful := utility(truth)
		lying := utility(misreport)
		if lying > truthful+1e-9 {
			t.Errorf("seed %d: misreporting utility %g beats truthful %g", seed, lying, truthful)
		}
	}
}

// TestExpectedUtilityHigherWithEnki verifies Theorem 5: the average
// household utility under Enki is at least the proportional-allocation
// (no-Enki) world's, because the greedy allocation lowers κ.
func TestExpectedUtilityHigherWithEnki(t *testing.T) {
	for seed := uint64(50); seed < 60; seed++ {
		n := 20
		gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		profiles := gen.DrawN(n)
		households := make([]core.Household, n)
		reports := make([]core.Report, n)
		for i, p := range profiles {
			households[i] = core.TruthfulHousehold(core.HouseholdID(i), p.TypeWide())
			reports[i] = core.Report{ID: core.HouseholdID(i), Pref: p.Wide}
		}

		// Enki world: greedy allocation, everyone complies.
		greedy := &sched.Greedy{Pricer: quad, Rating: 2}
		ga, err := greedy.Allocate(reports)
		if err != nil {
			t.Fatal(err)
		}
		enkiDay := mechanism.Day{Households: households, Rating: 2}
		for _, a := range ga {
			enkiDay.Assignments = append(enkiDay.Assignments, a.Interval)
			enkiDay.Consumptions = append(enkiDay.Consumptions, a.Interval)
		}
		enki, err := mechanism.Settle(quad, mechanism.DefaultConfig(), enkiDay)
		if err != nil {
			t.Fatal(err)
		}

		// No-Enki world: everyone consumes at the start of its window
		// (price-taking, uncoordinated) and pays proportionally.
		noDay := mechanism.Day{Households: households, Rating: 2}
		for _, h := range households {
			iv := h.Reported.IntervalAt(0)
			noDay.Assignments = append(noDay.Assignments, iv)
			noDay.Consumptions = append(noDay.Consumptions, iv)
		}
		baseline, err := mechanism.SettleProportional(quad, mechanism.DefaultXi, noDay)
		if err != nil {
			t.Fatal(err)
		}

		var enkiMean, baseMean float64
		for i := range households {
			enkiMean += enki.Utilities[i] / float64(n)
			baseMean += baseline.Utilities[i] / float64(n)
		}
		if enkiMean < baseMean-1e-9 {
			t.Errorf("seed %d: Enki mean utility %g below proportional baseline %g",
				seed, enkiMean, baseMean)
		}
	}
}

// TestFlexibleHouseholdGainsMore spot-checks Theorem 6: with equal
// consumption, the most flexible household's Enki payment is below its
// proportional share.
func TestFlexibleHouseholdGainsMore(t *testing.T) {
	// Three equal-duration households; household 0 is the most
	// flexible (widest, off-peak window).
	households := []core.Household{
		core.TruthfulHousehold(0, core.Type{True: core.MustPreference(6, 18, 2), ValuationFactor: 5}),
		core.TruthfulHousehold(1, core.Type{True: core.MustPreference(18, 21, 2), ValuationFactor: 5}),
		core.TruthfulHousehold(2, core.Type{True: core.MustPreference(18, 21, 2), ValuationFactor: 5}),
	}
	reports := make([]core.Report, len(households))
	for i, h := range households {
		reports[i] = core.Report{ID: h.ID, Pref: h.Reported}
	}
	greedy := &sched.Greedy{Pricer: quad, Rating: 2}
	assignments, err := greedy.Allocate(reports)
	if err != nil {
		t.Fatal(err)
	}
	day := mechanism.Day{Households: households, Rating: 2}
	for _, a := range assignments {
		day.Assignments = append(day.Assignments, a.Interval)
		day.Consumptions = append(day.Consumptions, a.Interval)
	}
	s, err := mechanism.Settle(quad, mechanism.DefaultConfig(), day)
	if err != nil {
		t.Fatal(err)
	}
	proportionalShare := mechanism.DefaultXi * s.Cost / 3 // equal energy → equal share
	if s.Payments[0] >= proportionalShare {
		t.Errorf("flexible household pays %g, at or above its proportional share %g",
			s.Payments[0], proportionalShare)
	}
	if s.Payments[1] <= s.Payments[0] {
		t.Errorf("rigid household pays %g, not above flexible %g", s.Payments[1], s.Payments[0])
	}
}

// TestSettleProportionalBudget: the baseline world also collects
// exactly ξ·κ.
func TestSettleProportionalBudget(t *testing.T) {
	day := buildDay(t, 3, 12)
	s, err := mechanism.SettleProportional(quad, 1.2, day)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Revenue()-1.2*s.Cost) > 1e-6 {
		t.Errorf("proportional revenue %g != 1.2κ = %g", s.Revenue(), 1.2*s.Cost)
	}
}

// TestSettlementArraysAligned checks every settlement slice has one
// entry per household and valuations respect allocation satisfaction.
func TestSettlementArraysAligned(t *testing.T) {
	day := buildDay(t, 9, 15)
	s, err := mechanism.Settle(quad, mechanism.DefaultConfig(), day)
	if err != nil {
		t.Fatal(err)
	}
	n := len(day.Households)
	for name, l := range map[string]int{
		"flexibility": len(s.Flexibility),
		"defection":   len(s.Defection),
		"socialCost":  len(s.SocialCost),
		"payments":    len(s.Payments),
		"valuations":  len(s.Valuations),
		"utilities":   len(s.Utilities),
	} {
		if l != n {
			t.Errorf("%s has %d entries, want %d", name, l, n)
		}
	}
	for i, h := range day.Households {
		maxV := core.MaxValuation(h.Type.True.Duration, h.Type.ValuationFactor)
		if s.Valuations[i] < 0 || s.Valuations[i] > maxV+1e-9 {
			t.Errorf("valuation %d = %g outside [0, %g]", i, s.Valuations[i], maxV)
		}
		if math.Abs(s.Utilities[i]-(s.Valuations[i]-s.Payments[i])) > 1e-9 {
			t.Errorf("utility %d != valuation − payment", i)
		}
	}
	// Compliance means κ(ω) = κ(s).
	if math.Abs(s.Cost-s.AllocCost) > 1e-9 {
		t.Errorf("compliant day: cost %g != alloc cost %g", s.Cost, s.AllocCost)
	}
}
