package coalition

import (
	"math"
	"strings"
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/pricing"
	"enki/internal/profile"
	"enki/internal/sched"
)

var quad = pricing.Quadratic{Sigma: pricing.DefaultSigma}

func household(id int, truth core.Preference, reported core.Preference) core.Household {
	return core.Household{
		ID:       core.HouseholdID(id),
		Type:     core.Type{True: truth, ValuationFactor: 5},
		Reported: reported,
	}
}

func TestFormValidation(t *testing.T) {
	if _, err := Form(nil, 3); err == nil {
		t.Error("no households should be rejected")
	}
}

func TestFormPartition(t *testing.T) {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(4))
	if err != nil {
		t.Fatal(err)
	}
	households := make([]core.Household, 20)
	for i, p := range gen.DrawN(20) {
		households[i] = core.TruthfulHousehold(core.HouseholdID(i), p.TypeWide())
	}
	coalitions, err := Form(households, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPartition(len(households), coalitions); err != nil {
		t.Fatalf("Form result is not a partition: %v", err)
	}
	for _, c := range coalitions {
		if len(c.Members) > 3 {
			t.Errorf("coalition of size %d exceeds the maximum 3", len(c.Members))
		}
	}
}

func TestFormGroupsCompatibleHouseholds(t *testing.T) {
	// Two pairs: evening duration-2 households and morning duration-1
	// households. Formation should not mix incompatible durations.
	households := []core.Household{
		household(0, core.MustPreference(18, 22, 2), core.MustPreference(18, 22, 2)),
		household(1, core.MustPreference(18, 23, 2), core.MustPreference(18, 23, 2)),
		household(2, core.MustPreference(7, 11, 1), core.MustPreference(7, 11, 1)),
		household(3, core.MustPreference(8, 12, 1), core.MustPreference(8, 12, 1)),
	}
	coalitions, err := Form(households, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range coalitions {
		if len(c.Members) < 2 {
			continue
		}
		d := households[c.Members[0]].Type.True.Duration
		for _, m := range c.Members[1:] {
			if households[m].Type.True.Duration != d {
				t.Errorf("coalition mixes durations: members %v", c.Members)
			}
		}
	}
}

// TestSwapRescuesDefector is the core of the extension: a member whose
// allocation misses its true window exchanges slots with a compatible
// partner, and the coalition is not punished because its aggregate load
// is exactly what the center allocated.
func TestSwapRescuesDefector(t *testing.T) {
	// Household 0 misreports (claims morning, truly needs 18-20).
	// Household 1 is truthful with a wide all-day tolerance, so the two
	// allocations can be exchanged: 1's evening slot satisfies 0, and
	// 0's morning slot satisfies 1.
	households := []core.Household{
		household(0, core.MustPreference(18, 20, 2), core.MustPreference(8, 12, 2)),
		household(1, core.MustPreference(8, 22, 2), core.MustPreference(8, 22, 2)),
	}
	assignments := []core.Interval{
		{Begin: 8, End: 10},  // misses 0's truth, fits 1's
		{Begin: 18, End: 20}, // satisfies 0's truth
	}
	coalitions := []Coalition{{Members: []int{0, 1}}}
	cons, err := PlanConsumptions(households, coalitions, assignments)
	if err != nil {
		t.Fatal(err)
	}
	if cons[0] != (core.Interval{Begin: 18, End: 20}) {
		t.Fatalf("household 0 consumed %v, want the partner slot (18,20)", cons[0])
	}
	if cons[1] != (core.Interval{Begin: 8, End: 10}) {
		t.Fatalf("household 1 consumed %v, want the exchanged slot (8,10)", cons[1])
	}
	unmatched := UnmatchedConsumptions(coalitions[0], assignments, cons)
	if len(unmatched) != 0 {
		t.Errorf("a pure exchange must leave no unmatched consumption, got %v", unmatched)
	}
}

// TestNoRescueWithoutExchange: when the displaced partner has nowhere
// feasible to go, the coalition does not fake a rescue by stacking —
// the misreporter defects individually.
func TestNoRescueWithoutExchange(t *testing.T) {
	households := []core.Household{
		household(0, core.MustPreference(18, 20, 2), core.MustPreference(8, 12, 2)),
		household(1, core.MustPreference(17, 22, 2), core.MustPreference(17, 22, 2)), // cannot take (8,10)
	}
	assignments := []core.Interval{{Begin: 8, End: 10}, {Begin: 18, End: 20}}
	coalitions := []Coalition{{Members: []int{0, 1}}}
	cons, err := PlanConsumptions(households, coalitions, assignments)
	if err != nil {
		t.Fatal(err)
	}
	if cons[1] != assignments[1] {
		t.Errorf("the compliant partner must keep its slot, got %v", cons[1])
	}
	unmatched := UnmatchedConsumptions(coalitions[0], assignments, cons)
	if !unmatched[0] {
		t.Error("the stacking misreporter must be flagged as the coalition's deviation")
	}
	if unmatched[1] {
		t.Error("the compliant partner must not be flagged")
	}
}

func TestPlanConsumptionsCompliantStaysPut(t *testing.T) {
	households := []core.Household{
		household(0, core.MustPreference(18, 22, 2), core.MustPreference(18, 22, 2)),
		household(1, core.MustPreference(18, 22, 2), core.MustPreference(18, 22, 2)),
	}
	assignments := []core.Interval{{Begin: 18, End: 20}, {Begin: 20, End: 22}}
	coalitions := []Coalition{{Members: []int{0, 1}}}
	cons, err := PlanConsumptions(households, coalitions, assignments)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cons {
		if cons[i] != assignments[i] {
			t.Errorf("compliant member %d moved from %v to %v", i, assignments[i], cons[i])
		}
	}
}

func TestPlanConsumptionsValidation(t *testing.T) {
	households := []core.Household{
		household(0, core.MustPreference(18, 22, 2), core.MustPreference(18, 22, 2)),
	}
	if _, err := PlanConsumptions(households, []Coalition{{Members: []int{0}}}, nil); err == nil {
		t.Error("assignment length mismatch should be rejected")
	}
	assignments := []core.Interval{{Begin: 18, End: 20}}
	if _, err := PlanConsumptions(households, []Coalition{{Members: []int{0, 1}}}, assignments); err == nil {
		t.Error("out-of-range member should be rejected")
	}
	if _, err := PlanConsumptions(households, []Coalition{}, assignments); err == nil {
		t.Error("non-covering partition should be rejected")
	}
}

func TestSettleBudgetBalanceAndRescue(t *testing.T) {
	households := []core.Household{
		household(0, core.MustPreference(18, 20, 2), core.MustPreference(8, 12, 2)),
		household(1, core.MustPreference(17, 22, 2), core.MustPreference(17, 22, 2)),
		household(2, core.MustPreference(19, 23, 2), core.MustPreference(19, 23, 2)),
	}
	reports := make([]core.Report, len(households))
	for i, h := range households {
		reports[i] = core.Report{ID: h.ID, Pref: h.Reported}
	}
	greedy := &sched.Greedy{Pricer: quad, Rating: 2}
	as, err := greedy.Allocate(reports)
	if err != nil {
		t.Fatal(err)
	}
	assignments := make([]core.Interval, len(as))
	for i, a := range as {
		assignments[i] = a.Interval
	}
	coalitions, err := Form(households, 3)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := PlanConsumptions(households, coalitions, assignments)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Settle(quad, mechanism.DefaultConfig(), households, coalitions, assignments, cons, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Revenue()-mechanism.DefaultXi*s.Cost) > 1e-9 {
		t.Errorf("revenue %g != ξκ = %g", s.Revenue(), mechanism.DefaultXi*s.Cost)
	}
	if s.Rescued+s.Defectors == 0 && !households[0].Type.True.Admits(assignments[0]) {
		t.Error("the misreporter must either be rescued or counted as a defector")
	}
}

// TestCoalitionBeatsSingletons: on a day where a misreporter can be
// rescued, the coalition world produces no genuine defections while the
// singleton world does, and the misreporter's bill is lower inside the
// coalition.
func TestCoalitionBeatsSingletons(t *testing.T) {
	households := []core.Household{
		household(0, core.MustPreference(18, 20, 2), core.MustPreference(8, 12, 2)),
		household(1, core.MustPreference(8, 22, 2), core.MustPreference(8, 22, 2)),
	}
	assignments := []core.Interval{{Begin: 8, End: 10}, {Begin: 18, End: 20}}
	cfg := mechanism.DefaultConfig()

	// Coalition world.
	coalitions := []Coalition{{Members: []int{0, 1}}}
	cCons, err := PlanConsumptions(households, coalitions, assignments)
	if err != nil {
		t.Fatal(err)
	}
	withC, err := Settle(quad, cfg, households, coalitions, assignments, cCons, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Singleton world: same center, every household on its own.
	singletons := []Coalition{{Members: []int{0}}, {Members: []int{1}}}
	sCons, err := PlanConsumptions(households, singletons, assignments)
	if err != nil {
		t.Fatal(err)
	}
	withoutC, err := Settle(quad, cfg, households, singletons, assignments, sCons, 2)
	if err != nil {
		t.Fatal(err)
	}

	if withC.Defectors != 0 {
		t.Errorf("coalition world has %d defectors, want 0 (rescued)", withC.Defectors)
	}
	if withoutC.Defectors == 0 {
		t.Error("singleton world should contain a genuine defector")
	}
	if withC.Payments[0] >= withoutC.Payments[0] {
		t.Errorf("rescued misreporter pays %g in coalition, %g alone — coalition should be cheaper",
			withC.Payments[0], withoutC.Payments[0])
	}
}

func TestSettleValidation(t *testing.T) {
	households := []core.Household{
		household(0, core.MustPreference(18, 22, 2), core.MustPreference(18, 22, 2)),
	}
	assignments := []core.Interval{{Begin: 18, End: 20}}
	coalitions := []Coalition{{Members: []int{0}}}
	cfg := mechanism.DefaultConfig()
	if _, err := Settle(quad, cfg, households, coalitions, assignments, nil, 2); err == nil {
		t.Error("consumption length mismatch should be rejected")
	}
	if _, err := Settle(quad, cfg, households, coalitions, assignments, assignments, 0); err == nil {
		t.Error("zero rating should be rejected")
	}
	if _, err := Settle(quad, cfg, households, nil, assignments, assignments, 2); err == nil {
		t.Error("non-covering partition should be rejected")
	}
	// A household reported (18, 24, 3) consumes the 4-slot, off-day
	// [22, 26): the day fails, as in the day machine, instead of dropping
	// the off-day slots from κ(ω).
	ev := core.MustPreference(18, 24, 3)
	_, err := Settle(quad, cfg, []core.Household{household(0, ev, ev)}, coalitions,
		[]core.Interval{{Begin: 18, End: 21}}, []core.Interval{{Begin: 22, End: 26}}, 3)
	if err == nil || !strings.Contains(err.Error(), "outside day") {
		t.Errorf("off-day consumption: err = %v, want an outside-day rejection", err)
	}
}
