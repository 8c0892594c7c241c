package core

import "fmt"

// HouseholdID identifies a household within a neighborhood.
type HouseholdID int

// Preference is a household's declared (or true) consumption request
// χ_i = (α_i, β_i, v_i): consume power for Duration consecutive hours,
// anywhere inside Window. The model requires β_i − α_i ≥ v_i.
type Preference struct {
	Window   Interval `json:"window"`
	Duration int      `json:"duration"`
}

// NewPreference builds χ = (begin, end, duration) and validates it.
func NewPreference(begin, end Hour, duration int) (Preference, error) {
	p := Preference{Window: Interval{Begin: begin, End: end}, Duration: duration}
	if err := p.Validate(); err != nil {
		return Preference{}, err
	}
	return p, nil
}

// MustPreference is NewPreference for statically known literals; it
// panics on invalid input and is intended for tests and examples.
func MustPreference(begin, end Hour, duration int) Preference {
	p, err := NewPreference(begin, end, duration)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks the Section III constraints on a preference.
func (p Preference) Validate() error {
	if err := p.Window.Validate(); err != nil {
		return err
	}
	if p.Duration <= 0 {
		return &ValidationError{
			Field:  "preference",
			Reason: fmt.Sprintf("duration %d must be positive", p.Duration),
		}
	}
	if p.Window.Len() < p.Duration {
		return &ValidationError{
			Field: "preference",
			Reason: fmt.Sprintf("window %v of %d slots cannot fit duration %d",
				p.Window, p.Window.Len(), p.Duration),
		}
	}
	return nil
}

// Slack is the number of deferment choices minus one: the allocation
// start may be deferred by d ∈ {0, ..., Slack()} slots from the window
// begin (the 0 ≤ d_i ≤ β̂_i − α̂_i − v_i constraint of Eq. 2).
func (p Preference) Slack() int { return p.Window.Len() - p.Duration }

// StartChoices is the number of feasible allocation start hours.
func (p Preference) StartChoices() int { return p.Slack() + 1 }

// IntervalAt returns the occupancy interval obtained by deferring the
// start by d slots from the window begin.
func (p Preference) IntervalAt(d int) Interval {
	return Interval{Begin: p.Window.Begin + d, End: p.Window.Begin + d + p.Duration}
}

// Admits reports whether iv is a feasible allocation for p: same
// duration and scheduled entirely inside the window.
func (p Preference) Admits(iv Interval) bool {
	return iv.Len() == p.Duration && p.Window.Covers(iv)
}

// CheckConsumption checks a realized consumption ω_i against the
// preference it was declared under: it lies inside the day and lasts the
// declared duration. It may lie outside the window; that is a defection,
// which Eq. 5 prices. Every settlement path checks consumptions by this
// one rule.
func (p Preference) CheckConsumption(iv Interval) error {
	if err := iv.Validate(); err != nil {
		return err
	}
	if iv.Len() != p.Duration {
		return &ValidationError{
			Field:  "consumption",
			Reason: fmt.Sprintf("consumed %d slots, declared %d", iv.Len(), p.Duration),
		}
	}
	return nil
}

// Width is the window width β − α used by the flexibility score (Eq. 4).
func (p Preference) Width() int { return p.Window.Len() }

// String renders the preference in the paper's χ = (α, β, v) notation.
func (p Preference) String() string {
	return fmt.Sprintf("(%d, %d, %d)", p.Window.Begin, p.Window.End, p.Duration)
}

// Type is a household's private type θ_i = (χ_i, ρ_i): its true
// preference and its valuation factor (willingness to pay).
type Type struct {
	True            Preference `json:"true"`
	ValuationFactor float64    `json:"valuationFactor"`
}

// Validate checks the type's constraints (ρ_i > 0 and a valid χ_i).
func (t Type) Validate() error {
	if err := t.True.Validate(); err != nil {
		return err
	}
	if t.ValuationFactor <= 0 {
		return &ValidationError{
			Field:  "type",
			Reason: fmt.Sprintf("valuation factor %g must be positive", t.ValuationFactor),
		}
	}
	return nil
}
