// Package mechanism implements the Enki payment mechanism of
// Section IV: flexibility scores (Eq. 4), defection scores (Eq. 5),
// social-cost scores (Eq. 6), the budget-balanced payment rule (Eq. 7),
// quasilinear utilities (Eq. 8), and the proportional-allocation
// baseline world used by Theorems 5 and 6.
package mechanism

import (
	"enki/internal/core"
)

// DefaultK is the paper's social-cost scaling factor k = 1 (Section VI).
const DefaultK = 1.0

// DefaultXi is the paper's payment scaling factor ξ = 1.2 (Section VI).
// Budget balance requires ξ ≥ 1 (Theorem 1).
const DefaultXi = 1.2

// FlexibilityScores computes the predicted flexibility score f_i of
// Eq. 4 for every preference:
//
//	f_i = (β_i − α_i)/v_i · 1/N_i
//
// where N_i is the average number of households (including i) whose
// windows cover each hour of i's window. Predicted scores assume all
// households report truthfully; the greedy scheduler orders by them and
// the payment rule uses them for non-defecting households.
func FlexibilityScores(prefs []core.Preference) []float64 {
	return FlexibilityScoresInto(make([]float64, len(prefs)), prefs)
}

// FlexibilityScoresInto computes Eq. 4 into dst, which must have
// len(prefs) entries, and returns it, in O(n + 24) and without
// allocating: the occupancy N comes from a difference array over the
// clamped windows, and each window's Σ_h N_h from prefix sums of it.
// The sums are integers, so every score is bit-identical to
// FlexibilityScore's per-hour sum. The greedy scheduler's zero-alloc
// hot path and the settlement chain call it with scratch buffers.
func FlexibilityScoresInto(dst []float64, prefs []core.Preference) []float64 {
	var diff [core.HoursPerDay + 1]int
	for _, p := range prefs {
		if lo, hi := dayPart(p.Window); lo < hi {
			diff[lo]++
			diff[hi]--
		}
	}
	var prefix [core.HoursPerDay + 1]int // prefix[h] = N_0 + … + N_{h-1}
	n := 0
	for h := 0; h < core.HoursPerDay; h++ {
		n += diff[h]
		prefix[h+1] = prefix[h] + n
	}
	for i, p := range prefs {
		sum := 0
		if lo, hi := dayPart(p.Window); lo < hi {
			sum = prefix[hi] - prefix[lo]
		}
		dst[i] = flexibility(p, sum)
	}
	return dst
}

// FlexibilityScore computes Eq. 4 for one preference against a
// population of windows that must include the preference itself.
func FlexibilityScore(p core.Preference, population []core.Preference) float64 {
	n := core.Occupancy(population)
	lo, hi := dayPart(p.Window)
	var sum int
	for h := lo; h < hi; h++ {
		sum += n[h]
	}
	return flexibility(p, sum)
}

// dayPart clamps a window to the day's hours, as core.Occupancy does.
func dayPart(w core.Interval) (lo, hi int) {
	return max(w.Begin, 0), min(w.End, core.HoursPerDay)
}

// flexibility is Eq. 4 for p given sum = Σ_h N_h over p's window.
func flexibility(p core.Preference, sum int) float64 {
	width := p.Width()
	if width == 0 || p.Duration == 0 {
		return 0
	}
	avg := float64(sum) / float64(width) // N_i
	if avg == 0 {
		return 0
	}
	return float64(width) / float64(p.Duration) / avg
}

// ActualFlexibilities zeroes the flexibility of defectors: per
// Section IV-B3, "f_i = 0 when the household misreports and defects",
// while obedient households keep their predicted score.
func ActualFlexibilities(predicted []float64, assignments, consumptions []core.Interval) []float64 {
	out := make([]float64, len(predicted))
	for i := range predicted {
		if core.Defected(assignments[i], consumptions[i]) {
			out[i] = 0
		} else {
			out[i] = predicted[i]
		}
	}
	return out
}
