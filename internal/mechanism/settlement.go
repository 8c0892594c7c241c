package mechanism

import (
	"fmt"
	"math"

	"enki/internal/core"
	"enki/internal/obs"
	"enki/internal/pricing"
)

// Config carries the mechanism's scaling factors.
type Config struct {
	K  float64 // social-cost scaling factor k (Eq. 6); paper: 1
	Xi float64 // payment scaling factor ξ ≥ 1 (Eq. 7); paper: 1.2
}

// DefaultConfig returns the Section VI parameters (k = 1, ξ = 1.2).
func DefaultConfig() Config { return Config{K: DefaultK, Xi: DefaultXi} }

// Validate checks the mechanism parameters.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("mechanism: k = %g must be positive", c.K)
	}
	if c.Xi < 1 {
		return fmt.Errorf("mechanism: xi = %g must be at least 1 for budget balance", c.Xi)
	}
	return nil
}

// Day is one completed day of the neighborhood: who the households are,
// what they reported, what the center allocated, and what they actually
// consumed. Slices are parallel and indexed identically.
type Day struct {
	Households   []core.Household // types and reports
	Assignments  []core.Interval  // s_i, one per household
	Consumptions []core.Interval  // ω_i, one per household
	Rating       float64          // power rating r in kW
}

// Validate checks structural consistency of the day.
func (d Day) Validate() error {
	n := len(d.Households)
	if n == 0 {
		return fmt.Errorf("mechanism: day has no households")
	}
	if len(d.Assignments) != n || len(d.Consumptions) != n {
		return fmt.Errorf("mechanism: %d households, %d assignments, %d consumptions",
			n, len(d.Assignments), len(d.Consumptions))
	}
	if d.Rating <= 0 {
		return fmt.Errorf("mechanism: rating %g must be positive", d.Rating)
	}
	for i, h := range d.Households {
		if err := h.Type.Validate(); err != nil {
			return fmt.Errorf("household %d: %w", i, err)
		}
		if err := h.Reported.Validate(); err != nil {
			return fmt.Errorf("household %d report: %w", i, err)
		}
		if !h.Reported.Admits(d.Assignments[i]) {
			return fmt.Errorf("household %d: assignment %v not admitted by report %v",
				i, d.Assignments[i], h.Reported)
		}
		if err := h.Reported.CheckConsumption(d.Consumptions[i]); err != nil {
			return fmt.Errorf("household %d consumption %v: %w", i, d.Consumptions[i], err)
		}
	}
	return nil
}

// Settlement is the financial outcome of a day under Enki.
type Settlement struct {
	Cost        float64   // κ(ω): what the neighborhood pays the power company
	AllocCost   float64   // κ(s): cost if everyone had complied
	Flexibility []float64 // actual flexibility scores (0 for defectors)
	Defection   []float64 // δ_i (Eq. 5)
	SocialCost  []float64 // Ψ_i (Eq. 6)
	Payments    []float64 // p_i (Eq. 7)
	Valuations  []float64 // V_i(τ_i, v_i, ρ_i) from allocation vs true preference
	Utilities   []float64 // U_i = V_i − p_i (Eq. 8)
}

// Revenue is Σ p_i, the neighborhood's income.
func (s Settlement) Revenue() float64 {
	var sum float64
	for _, p := range s.Payments {
		sum += p
	}
	return sum
}

// CenterUtility is U_c = Σ p_i − κ(ω); Theorem 1 guarantees it equals
// (ξ − 1)·κ(ω) ≥ 0.
func (s Settlement) CenterUtility() float64 { return s.Revenue() - s.Cost }

// RecordSettlementMetrics publishes one settled day to the default
// metrics registry: score and payment distributions (histograms, so
// they merge deterministically across parallel days), the Theorem 1
// budget residual Σp − κ(ω), the payment spread max p − min p, and
// the day's PAR. It also enforces the Theorem 1 identity Σp = ξ·κ(ω):
// a day whose signed deviation leaves the floating-point tolerance band
// increments the budget-violations counter the budget-residual-zero SLO
// burns against. The gauges hold the most recent day — meaningful for
// the serial enkid daemon; in parallel experiment runs only the
// histograms and the counters are deterministic.
func RecordSettlementMetrics(flex, defect, psi, payments []float64, cost, xi, par float64) {
	reg := obs.Default()
	reg.Counter(obs.MetricMechSettlementsTotal).Inc()
	reg.Histogram(obs.MetricMechFlexibilityScore, obs.ScoreBuckets).ObserveBatch(flex)
	reg.Histogram(obs.MetricMechDefectionScore, obs.ScoreBuckets).ObserveBatch(defect)
	reg.Histogram(obs.MetricMechSocialCostScore, obs.ScoreBuckets).ObserveBatch(psi)
	reg.Histogram(obs.MetricMechPaymentDollars, obs.DollarBuckets).ObserveBatch(payments)
	var revenue, minP, maxP float64
	for i := range payments {
		revenue += payments[i]
		if i == 0 || payments[i] < minP {
			minP = payments[i]
		}
		if i == 0 || payments[i] > maxP {
			maxP = payments[i]
		}
	}
	reg.Gauge(obs.MetricMechBudgetResidual).Set(revenue - cost)
	reg.Gauge(obs.MetricMechPaymentSpread).Set(maxP - minP)
	reg.Gauge(obs.MetricMechDayPAR).Set(par)
	deviation := revenue - xi*cost
	reg.Gauge(obs.MetricMechTheorem1Deviation).Set(deviation)
	if tol := 1e-9 * math.Max(1, math.Abs(xi*cost)); math.Abs(deviation) > tol {
		reg.Counter(obs.MetricMechBudgetViolations).Inc()
	}
}

// Settle computes the full Enki settlement for a day: scores, payments,
// and utilities.
func Settle(p pricing.Pricer, cfg Config, day Day) (Settlement, error) {
	if err := cfg.Validate(); err != nil {
		return Settlement{}, err
	}
	if err := day.Validate(); err != nil {
		return Settlement{}, err
	}

	prefs := make([]core.Preference, len(day.Households))
	for i, h := range day.Households {
		prefs[i] = h.Reported
	}
	chain, err := SettleChain(p, cfg, day.Rating, prefs, day.Assignments, day.Consumptions, nil)
	if err != nil {
		return Settlement{}, err
	}
	allocCost := pricing.CostOfIntervals(p, day.Assignments, day.Rating)
	payments := chain.Payments

	valuations := make([]float64, len(day.Households))
	utilities := make([]float64, len(day.Households))
	for i, h := range day.Households {
		valuations[i] = core.ValuationOf(day.Assignments[i], h.Type)
		utilities[i] = core.Utility(valuations[i], payments[i])
	}

	RecordSettlementMetrics(chain.Flexibility, chain.Defection, chain.SocialCost, payments, chain.Cost, cfg.Xi, chain.Load.PAR())

	return Settlement{
		Cost:        chain.Cost,
		AllocCost:   allocCost,
		Flexibility: chain.Flexibility,
		Defection:   chain.Defection,
		SocialCost:  chain.SocialCost,
		Payments:    payments,
		Valuations:  valuations,
		Utilities:   utilities,
	}, nil
}

// SettleProportional computes the no-Enki baseline world of Section V-D
// for the same day: every household consumes per its consumption
// interval and pays proportionally to energy used. Valuations are
// unchanged ("the valuation of each household stays the same no matter
// whether it participates in Enki").
func SettleProportional(p pricing.Pricer, xi float64, day Day) (Settlement, error) {
	if err := day.Validate(); err != nil {
		return Settlement{}, err
	}
	cost := pricing.CostOfIntervals(p, day.Consumptions, day.Rating)
	energy := make([]float64, len(day.Consumptions))
	for i, c := range day.Consumptions {
		energy[i] = float64(c.Len()) * day.Rating
	}
	payments, err := ProportionalPayments(energy, xi, cost)
	if err != nil {
		return Settlement{}, err
	}
	valuations := make([]float64, len(day.Households))
	utilities := make([]float64, len(day.Households))
	for i, h := range day.Households {
		valuations[i] = core.ValuationOf(day.Assignments[i], h.Type)
		utilities[i] = core.Utility(valuations[i], payments[i])
	}
	return Settlement{
		Cost:       cost,
		AllocCost:  cost,
		Payments:   payments,
		Valuations: valuations,
		Utilities:  utilities,
	}, nil
}
