package appliances

import (
	"fmt"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/pricing"
)

// Consumption is one household's realized per-appliance consumption,
// aligned with its Plan.
type Consumption struct {
	ID        core.HouseholdID
	Intervals []core.Interval
}

// Comply returns the consumptions of fully cooperative households.
func Comply(plans []Plan) []Consumption {
	out := make([]Consumption, len(plans))
	for i, p := range plans {
		out[i] = Consumption{ID: p.ID, Intervals: append([]core.Interval(nil), p.Intervals...)}
	}
	return out
}

// ConsumeTruthfully follows each appliance's allocation when it
// satisfies the true preference and otherwise defects to the closest
// true-window placement.
func ConsumeTruthfully(households []Household, plans []Plan) []Consumption {
	out := make([]Consumption, len(plans))
	for i, p := range plans {
		ivs := make([]core.Interval, len(p.Intervals))
		for ai, iv := range p.Intervals {
			ivs[ai] = core.ClosestConsumption(households[i].Appliances[ai].Type.True, iv)
		}
		out[i] = Consumption{ID: p.ID, Intervals: ivs}
	}
	return out
}

// Settlement is the household-level financial outcome of a
// multi-appliance day.
type Settlement struct {
	Cost        float64   // κ(ω), including base loads
	BaseCost    float64   // the constant cost of the base loads alone
	Flexibility []float64 // energy-weighted household flexibility (0 if any appliance defected... per appliance rules)
	Defection   []float64 // summed appliance defection scores per household
	SocialCost  []float64 // Ψ per household (Eq. 6 on the aggregates)
	Payments    []float64 // p_i (Eq. 7): social-cost share of the shiftable cost plus the base-load constant
	Valuations  []float64 // Σ appliance valuations (Eq. 3)
	Utilities   []float64 // valuation − payment (Eq. 8)
}

// Revenue is Σ p_i.
func (s Settlement) Revenue() float64 {
	var sum float64
	for _, p := range s.Payments {
		sum += p
	}
	return sum
}

// Settle computes the multi-appliance settlement: per-appliance Eq. 4
// flexibility (zeroed on defection) and Eq. 5 defection scores are
// aggregated per household (flexibility energy-weighted, defection
// summed), Eq. 6/7 run on the aggregates over the shiftable part of the
// cost, and every household additionally pays ξ times its own base
// load's constant cost. Revenue is exactly ξ·κ(ω), preserving
// Theorem 1.
func Settle(p pricing.Pricer, cfg mechanism.Config, households []Household, plans []Plan, consumptions []Consumption) (Settlement, error) {
	if err := cfg.Validate(); err != nil {
		return Settlement{}, err
	}
	if len(households) != len(plans) || len(households) != len(consumptions) {
		return Settlement{}, fmt.Errorf("appliances: %d households, %d plans, %d consumptions",
			len(households), len(plans), len(consumptions))
	}

	// Flatten to appliance level, validating alignment.
	var prefs []core.Preference
	var assigned, consumed []core.Interval
	var owner []int
	var ratings []float64
	var types []core.Type
	for hi, h := range households {
		if err := h.Validate(); err != nil {
			return Settlement{}, err
		}
		if len(plans[hi].Intervals) != len(h.Appliances) || len(consumptions[hi].Intervals) != len(h.Appliances) {
			return Settlement{}, fmt.Errorf("appliances: household %d has %d appliances, %d planned, %d consumed",
				h.ID, len(h.Appliances), len(plans[hi].Intervals), len(consumptions[hi].Intervals))
		}
		for ai, a := range h.Appliances {
			iv := plans[hi].Intervals[ai]
			if !a.Reported.Admits(iv) {
				return Settlement{}, fmt.Errorf("appliances: household %d appliance %q: plan %v not admitted by report %v",
					h.ID, a.Name, iv, a.Reported)
			}
			c := consumptions[hi].Intervals[ai]
			if err := a.Reported.CheckConsumption(c); err != nil {
				return Settlement{}, fmt.Errorf("appliances: household %d appliance %q consumption %v: %w",
					h.ID, a.Name, c, err)
			}
			prefs = append(prefs, a.Reported)
			assigned = append(assigned, iv)
			consumed = append(consumed, c)
			owner = append(owner, hi)
			ratings = append(ratings, a.Rating)
			types = append(types, a.Type)
		}
	}

	// Scores at appliance level. Defection uses the appliance's own
	// rating via a per-appliance swap against the realized profile of
	// assignments (base loads included: a defection onto the base peak
	// is costlier).
	predicted := mechanism.FlexibilityScores(prefs)
	flexApp := mechanism.ActualFlexibilities(predicted, assigned, consumed)
	defectApp := defectionScores(p, households, ratings, assigned, consumed)

	n := len(households)
	flex := make([]float64, n)
	defect := make([]float64, n)
	energy := make([]float64, n)
	for i, hi := range owner {
		e := float64(prefs[i].Duration) * ratings[i]
		flex[hi] += flexApp[i] * e
		defect[hi] += defectApp[i]
		energy[hi] += e
	}
	for hi := range flex {
		if energy[hi] > 0 {
			flex[hi] /= energy[hi]
		}
	}

	psi, err := mechanism.SocialCostScores(flex, defect, cfg.K)
	if err != nil {
		return Settlement{}, err
	}

	// Cost split: base (constant) vs shiftable (scheduled) parts.
	load := baseLoadOf(households)
	baseCost := pricing.Cost(p, load)
	for i, iv := range consumed {
		load.AddInterval(iv, ratings[i])
	}
	cost := pricing.Cost(p, load)
	shiftableCost := cost - baseCost

	shiftPayments, err := mechanism.Payments(psi, cfg.Xi, shiftableCost)
	if err != nil {
		return Settlement{}, err
	}

	// The base-load constant is apportioned by each household's own
	// base draw — the "constant cost added to each household's payment".
	var totalBase float64
	for _, h := range households {
		totalBase += h.BaseLoad
	}
	payments := make([]float64, n)
	valuations := make([]float64, n)
	utilities := make([]float64, n)
	for hi, h := range households {
		payments[hi] = shiftPayments[hi]
		if totalBase > 0 {
			payments[hi] += h.BaseLoad / totalBase * cfg.Xi * baseCost
		}
	}
	for i, hi := range owner {
		valuations[hi] += core.ValuationOf(assigned[i], types[i])
	}
	for hi := range utilities {
		utilities[hi] = core.Utility(valuations[hi], payments[hi])
	}

	return Settlement{
		Cost:        cost,
		BaseCost:    baseCost,
		Flexibility: flex,
		Defection:   defect,
		SocialCost:  psi,
		Payments:    payments,
		Valuations:  valuations,
		Utilities:   utilities,
	}, nil
}

// baseLoadOf builds the constant base-load profile.
func baseLoadOf(households []Household) core.Load {
	var load core.Load
	for _, h := range households {
		for hr := 0; hr < core.HoursPerDay; hr++ {
			load[hr] += h.BaseLoad
		}
	}
	return load
}

// defectionScores computes Eq. 5 per appliance, at its own rating,
// against the full allocated profile (base loads included).
func defectionScores(p pricing.Pricer, households []Household, ratings []float64, assigned, consumed []core.Interval) []float64 {
	base := baseLoadOf(households)
	for i, iv := range assigned {
		base.AddInterval(iv, ratings[i])
	}
	baseCost := pricing.Cost(p, base)
	out := make([]float64, len(assigned))
	for i := range assigned {
		out[i] = mechanism.Defection(p, &base, baseCost, assigned[i], consumed[i], ratings[i])
	}
	return out
}
