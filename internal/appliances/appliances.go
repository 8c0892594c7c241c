// Package appliances implements the multi-appliance extension the
// paper sketches in Section III: a household declares several shiftable
// loads ("the power rating r will vary when we model multiple
// appliances for a given household") plus a constant nonshiftable base
// load, and its payment adds the base load's constant cost to the
// social-cost share of its shiftable appliances.
//
// Allocation is the greedy scheduler's rule at per-appliance ratings
// (sched.Greedy.PlaceAll); scoring aggregates Eq. 4-6 at the household
// level (an appliance's flexibility weighted by its energy, its Eq. 5
// score from mechanism.Defection at its own rating); payments remain
// Eq. 7 and stay exactly budget balanced.
package appliances

import (
	"fmt"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/pricing"
	"enki/internal/sched"
)

// Appliance is one shiftable load of a household.
type Appliance struct {
	// Name labels the appliance ("ev", "dishwasher", ...).
	Name string
	// Type is the appliance's true preference and valuation factor.
	Type core.Type
	// Reported is the declared preference (equal to Type.True for a
	// truthful household).
	Reported core.Preference
	// Rating is the appliance's power draw in kW while running.
	Rating float64
}

// Validate checks the appliance's constraints.
func (a Appliance) Validate() error {
	if err := a.Type.Validate(); err != nil {
		return fmt.Errorf("appliance %q: %w", a.Name, err)
	}
	if err := a.Reported.Validate(); err != nil {
		return fmt.Errorf("appliance %q report: %w", a.Name, err)
	}
	if a.Reported.Duration != a.Type.True.Duration {
		return fmt.Errorf("appliance %q: reported duration %d != true duration %d",
			a.Name, a.Reported.Duration, a.Type.True.Duration)
	}
	if a.Rating <= 0 {
		return fmt.Errorf("appliance %q: rating %g must be positive", a.Name, a.Rating)
	}
	return nil
}

// Energy is the appliance's shiftable energy (duration × rating, kWh).
func (a Appliance) Energy() float64 {
	return float64(a.Reported.Duration) * a.Rating
}

// Household is a multi-appliance household.
type Household struct {
	// ID identifies the household.
	ID core.HouseholdID
	// BaseLoad is the household's constant nonshiftable draw in kW,
	// applied to every hour of the day. Its cost cannot be reduced by
	// scheduling and enters the bill as a constant.
	BaseLoad float64
	// Appliances are the shiftable loads.
	Appliances []Appliance
}

// Validate checks the household's constraints.
func (h Household) Validate() error {
	if h.BaseLoad < 0 {
		return fmt.Errorf("household %d: negative base load %g", h.ID, h.BaseLoad)
	}
	if len(h.Appliances) == 0 {
		return fmt.Errorf("household %d: no appliances", h.ID)
	}
	names := make(map[string]bool, len(h.Appliances))
	for _, a := range h.Appliances {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("household %d: %w", h.ID, err)
		}
		if names[a.Name] {
			return fmt.Errorf("household %d: duplicate appliance %q", h.ID, a.Name)
		}
		names[a.Name] = true
	}
	return nil
}

// ShiftableEnergy is the household's total schedulable energy.
func (h Household) ShiftableEnergy() float64 {
	var sum float64
	for _, a := range h.Appliances {
		sum += a.Energy()
	}
	return sum
}

// Plan is the center's allocation for one household: one interval per
// appliance, in appliance order.
type Plan struct {
	ID        core.HouseholdID
	Intervals []core.Interval
}

// Allocate places every appliance of every household by the Section
// IV-C greedy, sched.Greedy.PlaceAll: appliances in increasing Eq. 4
// flexibility across the whole neighborhood (ties broken by rng, or
// deterministically when rng is nil), each at the deferment minimizing
// (peak, marginal cost) at its own rating. The base loads are part of
// the load profile from the start, so scheduling routes shiftable
// energy around them.
func Allocate(p pricing.Pricer, households []Household, rng *dist.RNG) ([]Plan, error) {
	if p == nil {
		return nil, fmt.Errorf("appliances: nil pricer")
	}
	if len(households) == 0 {
		return nil, fmt.Errorf("appliances: no households")
	}
	seen := make(map[core.HouseholdID]bool, len(households))
	for _, h := range households {
		if err := h.Validate(); err != nil {
			return nil, err
		}
		if seen[h.ID] {
			return nil, fmt.Errorf("appliances: duplicate household id %d", h.ID)
		}
		seen[h.ID] = true
	}

	var prefs []core.Preference
	var ratings []float64
	for _, h := range households {
		for _, a := range h.Appliances {
			prefs = append(prefs, a.Reported)
			ratings = append(ratings, a.Rating)
		}
	}
	load := baseLoadOf(households)
	intervals := (&sched.Greedy{Pricer: p, RNG: rng}).PlaceAll(prefs, ratings, &load)

	plans := make([]Plan, len(households))
	for hi, h := range households {
		n := len(h.Appliances)
		plans[hi] = Plan{ID: h.ID, Intervals: intervals[:n:n]}
		intervals = intervals[n:]
	}
	return plans, nil
}
