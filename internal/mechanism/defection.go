package mechanism

import (
	"math"

	"enki/internal/core"
	"enki/internal/pricing"
)

// DefectionScores computes δ_i of Eq. 5 for every household:
//
//	δ_i = (κ(s_{−i} ∪ ω_i) − κ(s)) / e^{o_i}
//
// where κ(s) is the neighborhood cost if everyone followed their
// allocations, κ(s_{−i} ∪ ω_i) replaces household i's allocation with
// its realized consumption, and o_i is the overlap fraction between
// allocation and consumption. A household that follows its allocation
// has δ_i = 0. A defection that happens to lower the neighborhood cost
// is clamped to 0 rather than rewarded: the mechanism punishes harm, it
// does not pay for accidental help.
func DefectionScores(p pricing.Pricer, rating float64, assignments, consumptions []core.Interval) []float64 {
	return defectionScoresInto(make([]float64, len(assignments)), p, rating, assignments, consumptions)
}

// defectionScoresInto is Eq. 5 into dst, which has len(assignments)
// zeroed entries.
func defectionScoresInto(out []float64, p pricing.Pricer, rating float64, assignments, consumptions []core.Interval) []float64 {
	base := core.LoadOf(assignments, rating)
	baseCost := pricing.Cost(p, base)
	for i := range assignments {
		if assignments[i] == consumptions[i] {
			continue // exact compliance: δ_i = 0 without a call
		}
		out[i] = Defection(p, &base, baseCost, assignments[i], consumptions[i], rating)
	}
	return out
}

// Defection is one Eq. 5 score: the harm κ(s_{−i} ∪ ω_i) − κ(s) of
// swapping the assigned interval for the consumed one, at rating, in
// base (the load of every allocation, costing baseCost = κ(s)), clamped
// at 0 and divided by e^{o_i}. A consumption equal to its assignment
// scores exactly 0. The day machine and both extensions score Eq. 5
// here: the extensions at per-appliance ratings or per coalition
// member, over a base that may hold more than the allocations.
func Defection(p pricing.Pricer, base *core.Load, baseCost float64, assigned, consumed core.Interval, rating float64) float64 {
	if assigned == consumed {
		return 0
	}
	swapped := *base
	swapped.RemoveInterval(assigned, rating)
	swapped.AddInterval(consumed, rating)
	harm := pricing.Cost(p, swapped) - baseCost
	if harm < 0 {
		harm = 0
	}
	return harm / math.Exp(core.OverlapRatio(assigned, consumed))
}
