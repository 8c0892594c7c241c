package mechanism

import (
	"fmt"

	"enki/internal/core"
	"enki/internal/pricing"
)

// Chain is one day's Eq. 4–7 settlement chain. Every slice is aligned
// with the preferences the chain was computed from.
type Chain struct {
	Predicted   []float64 // Eq. 4, assuming compliance
	Flexibility []float64 // Eq. 4, zeroed for defectors and forfeits
	Defection   []float64 // Eq. 5
	SocialCost  []float64 // Eq. 6
	Payments    []float64 // Eq. 7
	Load        core.Load // hourly load of the consumptions
	Cost        float64   // κ(ω)
}

// SettleChain runs the Eq. 4–7 chain once over a day's reported
// preferences, allocations s_i and consumptions ω_i: the one settlement
// kernel every settlement path calls. forfeit (nil means none) marks
// households whose flexibility reward is forfeited wherever they
// consumed — degraded-day substitutions, which never confirmed
// compliance and so settle on the Eq. 5 defector path.
//
// The kernel is pure (it records no metrics; see
// RecordSettlementMetrics) and makes one allocation: the five score
// slices share a single backing array.
func SettleChain(p pricing.Pricer, cfg Config, rating float64, prefs []core.Preference, assigned, consumed []core.Interval, forfeit []bool) (Chain, error) {
	return SettleChainInto(nil, p, cfg, rating, prefs, assigned, consumed, forfeit)
}

// SettleChainInto is SettleChain over a caller's score array: the five
// score slices share scores' backing array when it holds 5·n floats,
// and a fresh one otherwise, so a caller that reuses the array settles
// without allocating. The array is cleared first, so whatever it held
// never reaches the chain.
func SettleChainInto(scores []float64, p pricing.Pricer, cfg Config, rating float64, prefs []core.Preference, assigned, consumed []core.Interval, forfeit []bool) (Chain, error) {
	n := len(prefs)
	if len(assigned) != n || len(consumed) != n || (forfeit != nil && len(forfeit) != n) {
		return Chain{}, fmt.Errorf("mechanism: %d preferences, %d assignments, %d consumptions, %d forfeits",
			n, len(assigned), len(consumed), len(forfeit))
	}
	if cfg.K <= 0 {
		return Chain{}, fmt.Errorf("mechanism: scaling factor k = %g must be positive", cfg.K)
	}
	buf := scores
	if cap(buf) < 5*n {
		buf = make([]float64, 5*n)
	} else {
		buf = buf[:5*n]
		clear(buf)
	}
	c := Chain{
		Predicted:   buf[0*n : 1*n : 1*n],
		Flexibility: buf[1*n : 2*n : 2*n],
		Defection:   buf[2*n : 3*n : 3*n],
		SocialCost:  buf[3*n : 4*n : 4*n],
		Payments:    buf[4*n : 5*n : 5*n],
	}
	FlexibilityScoresInto(c.Predicted, prefs)
	for i := range c.Flexibility {
		if (forfeit == nil || !forfeit[i]) && !core.Defected(assigned[i], consumed[i]) {
			c.Flexibility[i] = c.Predicted[i]
		}
	}
	defectionScoresInto(c.Defection, p, rating, assigned, consumed)
	socialCostInto(c.SocialCost, c.Flexibility, c.Defection, cfg.K)
	c.Load = core.LoadOf(consumed, rating)
	c.Cost = pricing.Cost(p, c.Load)
	if _, err := paymentsInto(c.Payments, c.SocialCost, cfg.Xi, c.Cost); err != nil {
		return Chain{}, err
	}
	return c, nil
}
