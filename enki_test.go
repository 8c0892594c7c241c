package enki

import (
	"math"
	"testing"

	"enki/internal/solver"
)

func truthfulHouseholds() []Household {
	types := []Type{
		{True: MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: MustPreference(17, 23, 2), ValuationFactor: 4},
		{True: MustPreference(19, 24, 3), ValuationFactor: 6},
		{True: MustPreference(16, 20, 1), ValuationFactor: 3},
	}
	hs := make([]Household, len(types))
	for i, t := range types {
		hs[i] = Household{ID: HouseholdID(i), Type: t, Reported: t.True}
	}
	return hs
}

func TestNewNeighborhoodDefaults(t *testing.T) {
	n, err := NewNeighborhood()
	if err != nil {
		t.Fatal(err)
	}
	if n.Rating() != DefaultRating {
		t.Errorf("rating = %g, want %g", n.Rating(), DefaultRating)
	}
}

func TestNewNeighborhoodOptionValidation(t *testing.T) {
	if _, err := NewNeighborhood(WithRating(0)); err == nil {
		t.Error("zero rating should be rejected")
	}
	if _, err := NewNeighborhood(WithPricer(nil)); err == nil {
		t.Error("nil pricer should be rejected")
	}
	if _, err := NewNeighborhood(WithMechanism(MechanismConfig{K: 1, Xi: 0.5})); err == nil {
		t.Error("xi < 1 should be rejected")
	}
}

func TestRunDayCompliant(t *testing.T) {
	n, err := NewNeighborhood(WithTieBreakRNG(NewRNG(1)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.RunDay(truthfulHouseholds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Compliance: consumption equals assignment; no defection scores.
	for i := range out.Assignments {
		if out.Consumptions[i] != out.Assignments[i].Interval {
			t.Errorf("household %d consumed %v, assigned %v",
				i, out.Consumptions[i], out.Assignments[i].Interval)
		}
		if out.Settlement.Defection[i] != 0 {
			t.Errorf("household %d has defection %g", i, out.Settlement.Defection[i])
		}
	}
	// Theorem 1: the center's utility is exactly (ξ−1)·κ(ω).
	want := (DefaultXi - 1) * out.Settlement.Cost
	if math.Abs(out.Settlement.CenterUtility()-want) > 1e-9 {
		t.Errorf("center utility %g, want %g", out.Settlement.CenterUtility(), want)
	}
	if out.PAR() < 1 {
		t.Errorf("PAR %g below 1", out.PAR())
	}
}

func TestRunDayWithDefector(t *testing.T) {
	n, err := NewNeighborhood()
	if err != nil {
		t.Fatal(err)
	}
	households := truthfulHouseholds()
	// Household 0 misreports an early window but truly wants (18, 22).
	households[0].Reported = MustPreference(10, 14, 2)
	out, err := n.RunDay(households, ConsumeTruthfully)
	if err != nil {
		t.Fatal(err)
	}
	if out.Consumptions[0] == out.Assignments[0].Interval {
		t.Fatal("misreporter should have been forced to defect")
	}
	if out.Settlement.Defection[0] <= 0 {
		t.Errorf("defector's score %g, want > 0", out.Settlement.Defection[0])
	}
	if out.Settlement.Flexibility[0] != 0 {
		t.Errorf("defector keeps flexibility %g", out.Settlement.Flexibility[0])
	}
	// Everyone else complied.
	for i := 1; i < len(households); i++ {
		if out.Settlement.Defection[i] != 0 {
			t.Errorf("household %d has defection %g", i, out.Settlement.Defection[i])
		}
	}
}

func TestRunDayWithOptimalScheduler(t *testing.T) {
	opt := &OptimalScheduler{
		Pricer:  Quadratic{Sigma: DefaultSigma},
		Rating:  DefaultRating,
		Options: SolverOptions{},
	}
	n, err := NewNeighborhood(WithScheduler(opt))
	if err != nil {
		t.Fatal(err)
	}
	greedyN, err := NewNeighborhood()
	if err != nil {
		t.Fatal(err)
	}
	hs := truthfulHouseholds()
	optOut, err := n.RunDay(hs, nil)
	if err != nil {
		t.Fatal(err)
	}
	greedyOut, err := greedyN.RunDay(hs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if optOut.Settlement.Cost > greedyOut.Settlement.Cost+1e-9 {
		t.Errorf("optimal cost %g exceeds greedy %g",
			optOut.Settlement.Cost, greedyOut.Settlement.Cost)
	}
	if !opt.LastResult.Optimal {
		t.Error("small instance must be proven optimal")
	}
	_ = solver.Options{} // keep the re-export exercised
}

func TestRunDayEmpty(t *testing.T) {
	n, err := NewNeighborhood()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunDay(nil, nil); err == nil {
		t.Error("empty household set should be rejected")
	}
}

// TestRunDayRejectsOffDayConsumption: a consumption that runs past the
// end of the day fails the day instead of settling with its off-day
// hour dropped from κ(ω).
func TestRunDayRejectsOffDayConsumption(t *testing.T) {
	n, err := NewNeighborhood()
	if err != nil {
		t.Fatal(err)
	}
	typ := Type{True: MustPreference(20, 24, 2), ValuationFactor: 5}
	households := []Household{{ID: 0, Type: typ, Reported: typ.True}, {ID: 1, Type: typ, Reported: typ.True}}
	consume := func(h Household, _ Interval) Interval {
		if h.ID == 1 {
			return Interval{Begin: 23, End: 25}
		}
		return Interval{Begin: 20, End: 22}
	}
	if out, err := n.RunDay(households, consume); err == nil {
		t.Errorf("consumption [23, 25) settled with κ(ω) = %g, want the day rejected", out.Settlement.Cost)
	}
}

func TestProfileGeneratorFacade(t *testing.T) {
	gen, err := NewProfileGenerator(NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	p := gen.Draw()
	if err := p.Validate(); err != nil {
		t.Fatalf("generated profile invalid: %v", err)
	}
	if p.Rating != DefaultRating {
		t.Errorf("rating %g, want %g", p.Rating, DefaultRating)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if _, err := NewPreference(22, 18, 1); err == nil {
		t.Error("invalid preference should be rejected")
	}
	if got := Valuation(2, 2, 5); got != 5 {
		t.Errorf("Valuation(2,2,5) = %g, want 5", got)
	}
	truth := MustPreference(18, 20, 2)
	if got := ClosestConsumption(truth, Interval{Begin: 10, End: 12}); got != (Interval{Begin: 18, End: 20}) {
		t.Errorf("ClosestConsumption = %v", got)
	}
	f := FlexibilityScores([]Preference{MustPreference(18, 22, 2)})
	if len(f) != 1 || f[0] <= 0 {
		t.Errorf("FlexibilityScores = %v", f)
	}
}
