package mechanism

import "fmt"

// NormalizedShares maps raw scores to the [0.5, 1.5] band of Eq. 6:
// share_i = x_i/Σx + 1/2. When every score is zero the share term is
// defined as 0 (so each normalized value is exactly 1/2), matching the
// "f_i > 0 and δ_i = 0 when truthful" boundary analysis of the paper.
func NormalizedShares(xs []float64) []float64 {
	sum := total(xs)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = share(x, sum)
	}
	return out
}

// share is one normalized Eq. 6 term x/Σx + 1/2, given Σx.
func share(x, sum float64) float64 {
	s := 0.0
	if sum > 0 {
		s = x / sum
	}
	return s + 0.5
}

func total(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// SocialCostScores computes Ψ_i of Eq. 6:
//
//	Ψ_i = k · (δ_i/Σδ + 1/2) / (f_i/Σf + 1/2)
//
// from raw flexibility and defection scores. k is the scaling factor
// (paper default 1). It returns an error on mismatched lengths or
// non-positive k.
func SocialCostScores(flex, defect []float64, k float64) ([]float64, error) {
	if len(flex) != len(defect) {
		return nil, fmt.Errorf("mechanism: %d flexibility scores vs %d defection scores", len(flex), len(defect))
	}
	if k <= 0 {
		return nil, fmt.Errorf("mechanism: scaling factor k = %g must be positive", k)
	}
	return socialCostInto(make([]float64, len(flex)), flex, defect, k), nil
}

// socialCostInto is Eq. 6 into dst without allocating the share
// slices.
func socialCostInto(dst, flex, defect []float64, k float64) []float64 {
	sumF, sumD := total(flex), total(defect)
	for i := range dst {
		dst[i] = k * share(defect[i], sumD) / share(flex[i], sumF)
	}
	return dst
}

// Payments computes p_i of Eq. 7:
//
//	p_i = Ψ_i/ΣΨ · ξ · κ(ω)
//
// Budget balance (Theorem 1) requires ξ ≥ 1: the neighborhood collects
// ξ·κ(ω) ≥ κ(ω) in total. It returns an error when ξ < 1 or when all
// social-cost scores vanish.
func Payments(socialCost []float64, xi, totalCost float64) ([]float64, error) {
	return paymentsInto(make([]float64, len(socialCost)), socialCost, xi, totalCost)
}

// paymentsInto is Eq. 7 into dst, which has len(socialCost) entries.
func paymentsInto(dst, socialCost []float64, xi, totalCost float64) ([]float64, error) {
	if xi < 1 {
		return nil, fmt.Errorf("mechanism: xi = %g violates budget balance (need ξ ≥ 1)", xi)
	}
	if totalCost < 0 {
		return nil, fmt.Errorf("mechanism: negative neighborhood cost %g", totalCost)
	}
	sum := total(socialCost)
	if len(socialCost) == 0 {
		return dst, nil
	}
	if sum <= 0 {
		return nil, fmt.Errorf("mechanism: social-cost scores sum to %g; cannot apportion payments", sum)
	}
	for i, s := range socialCost {
		dst[i] = s / sum * xi * totalCost
	}
	return dst, nil
}

// PaymentsStrictIC is the alternative rule Section V-B mentions: "Enki
// could be made Bayesian incentive-compatible by setting the payment of
// each household i as p_i = Ψ_i·κ(ω)." Dropping the ΣΨ normalization
// strengthens incentive compatibility — a household's payment no longer
// depends on the others' normalized scores — but the neighborhood's
// revenue becomes ΣΨ·κ(ω), which over- or under-collects depending on
// the day: exact budget balance (Theorem 1) is lost. The paper keeps
// Eq. 7 for that reason; this variant exists for the trade-off's
// property tests and benches.
func PaymentsStrictIC(socialCost []float64, totalCost float64) ([]float64, error) {
	if totalCost < 0 {
		return nil, fmt.Errorf("mechanism: negative neighborhood cost %g", totalCost)
	}
	out := make([]float64, len(socialCost))
	for i, s := range socialCost {
		if s < 0 {
			return nil, fmt.Errorf("mechanism: negative social-cost score %g", s)
		}
		out[i] = s * totalCost
	}
	return out, nil
}

// ProportionalPayments is the no-Enki baseline of Section V-D (Kelly's
// proportional allocation): each price-taking household pays in
// proportion to its energy use, p_i = b_i/Σb · ξ · κ(ω^z).
func ProportionalPayments(energy []float64, xi, totalCost float64) ([]float64, error) {
	if xi < 1 {
		return nil, fmt.Errorf("mechanism: xi = %g violates budget balance (need ξ ≥ 1)", xi)
	}
	var sum float64
	for i, b := range energy {
		if b < 0 {
			return nil, fmt.Errorf("mechanism: household %d has negative energy %g", i, b)
		}
		sum += b
	}
	out := make([]float64, len(energy))
	if sum == 0 {
		return out, nil
	}
	for i, b := range energy {
		out[i] = b / sum * xi * totalCost
	}
	return out, nil
}
