package coalition

import (
	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/pricing"
)

// Settlement is the outcome of a coalition-aware Enki day.
type Settlement struct {
	Cost             float64   // κ(ω)
	CoalitionPayment []float64 // Eq. 7 payment per coalition
	Payments         []float64 // per household (energy split of its coalition's bill)
	Flexibility      []float64 // per coalition (energy-weighted member mean, zeroed on coalition defection... per member rules)
	Defection        []float64 // per coalition (Eq. 5 over unmatched consumptions)
	Rescued          int       // members whose defection was absorbed by an internal swap
	Defectors        int       // members whose consumption is a genuine coalition-level deviation
}

// Revenue is Σ p_i over households.
func (s Settlement) Revenue() float64 {
	var sum float64
	for _, p := range s.Payments {
		sum += p
	}
	return sum
}

// Settle runs the coalition-aware mechanism for a completed day. The
// center's accounting unit is the coalition: flexibility is the
// energy-weighted mean of member predicted scores (zeroed for members
// whose consumption is unmatched), defection applies Eq. 5 to each
// unmatched consumption, and the Eq. 7 payment of a coalition is split
// among members by energy. Budget balance is preserved exactly.
func Settle(p pricing.Pricer, cfg mechanism.Config, households []core.Household, coalitions []Coalition, assignments, consumptions []core.Interval, rating float64) (Settlement, error) {
	if err := cfg.Validate(); err != nil {
		return Settlement{}, err
	}
	day := mechanism.Day{Households: households, Assignments: assignments, Consumptions: consumptions, Rating: rating}
	if err := day.Validate(); err != nil {
		return Settlement{}, err
	}
	if err := checkPartition(len(households), coalitions); err != nil {
		return Settlement{}, err
	}

	prefs := make([]core.Preference, len(households))
	for i, h := range households {
		prefs[i] = h.Reported
	}
	predicted := mechanism.FlexibilityScores(prefs)

	// Coalition-level scores.
	allocLoad := core.LoadOf(assignments, rating)
	allocCost := pricing.Cost(p, allocLoad)

	nC := len(coalitions)
	flex := make([]float64, nC)
	defect := make([]float64, nC)
	energy := make([]float64, nC)
	var rescued, defectors int

	for ci, c := range coalitions {
		unmatched := UnmatchedConsumptions(c, assignments, consumptions)
		var flexSum, eSum float64
		for _, m := range c.Members {
			e := float64(households[m].Reported.Duration) * rating
			eSum += e
			if unmatched[m] {
				defectors++
				// Eq. 5 for the unmatched consumption, in the allocated
				// profile.
				defect[ci] += mechanism.Defection(p, &allocLoad, allocCost, assignments[m], consumptions[m], rating)
				// An unmatched member contributes no flexibility.
				continue
			}
			if consumptions[m] != assignments[m] {
				rescued++
			}
			flexSum += predicted[m] * e
		}
		if eSum > 0 {
			flex[ci] = flexSum / eSum
		}
		energy[ci] = eSum
	}

	psi, err := mechanism.SocialCostScores(flex, defect, cfg.K)
	if err != nil {
		return Settlement{}, err
	}
	cost := pricing.CostOfIntervals(p, consumptions, rating)
	coalitionPayments, err := mechanism.Payments(psi, cfg.Xi, cost)
	if err != nil {
		return Settlement{}, err
	}

	payments := make([]float64, len(households))
	for ci, c := range coalitions {
		if energy[ci] == 0 {
			continue
		}
		for _, m := range c.Members {
			e := float64(households[m].Reported.Duration) * rating
			payments[m] = coalitionPayments[ci] * e / energy[ci]
		}
	}

	return Settlement{
		Cost:             cost,
		CoalitionPayment: coalitionPayments,
		Payments:         payments,
		Flexibility:      flex,
		Defection:        defect,
		Rescued:          rescued,
		Defectors:        defectors,
	}, nil
}
