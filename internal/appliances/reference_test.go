package appliances

// This file preserves the appliance allocator as it stood before it was
// folded into sched.Greedy.PlaceAll, as the differential-test oracle:
// a verbatim copy (modulo renames) of its own Sec. IV-C greedy, with
// per-slot peak rescans and interface-dispatched marginal costs. The
// differential test replays both over a seeded corpus and requires
// bit-identical plans and settlements. Do not "optimize" this file —
// its whole value is that it cannot drift along with sched.

import (
	"fmt"
	"sort"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/pricing"
)

// refSlot identifies one appliance in the flattened problem.
type refSlot struct {
	house, app int
	flex       float64
	energy     float64
}

// refAllocate is the retained appliance allocator.
func refAllocate(p pricing.Pricer, households []Household, rng *dist.RNG) ([]Plan, error) {
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

	// Flatten appliances and compute neighborhood-wide flexibility.
	var prefs []core.Preference
	var slots []refSlot
	for hi, h := range households {
		for ai, a := range h.Appliances {
			prefs = append(prefs, a.Reported)
			slots = append(slots, refSlot{house: hi, app: ai, energy: a.Energy()})
		}
	}
	flex := mechanism.FlexibilityScores(prefs)
	for i := range slots {
		slots[i].flex = flex[i]
	}
	jitter := make([]float64, len(slots))
	for i := range jitter {
		if rng != nil {
			jitter[i] = rng.Float64()
		} else {
			jitter[i] = float64(i)
		}
	}
	order := make([]int, len(slots))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if slots[order[a]].flex != slots[order[b]].flex {
			return slots[order[a]].flex < slots[order[b]].flex
		}
		return jitter[order[a]] < jitter[order[b]]
	})

	// Seed the profile with every household's base load.
	var load core.Load
	for _, h := range households {
		for hr := 0; hr < core.HoursPerDay; hr++ {
			load[hr] += h.BaseLoad
		}
	}

	plans := make([]Plan, len(households))
	for hi, h := range households {
		plans[hi] = Plan{ID: h.ID, Intervals: make([]core.Interval, len(h.Appliances))}
	}
	for _, idx := range order {
		s := slots[idx]
		a := households[s.house].Appliances[s.app]
		best := refBestPlacement(p, a.Reported, a.Rating, &load)
		plans[s.house].Intervals[s.app] = best
		load.AddInterval(best, a.Rating)
	}
	return plans, nil
}

// refBestPlacement mirrors the single-appliance greedy objective:
// (resulting peak, marginal cost, earliest start).
func refBestPlacement(p pricing.Pricer, pref core.Preference, rating float64, load *core.Load) core.Interval {
	best := pref.IntervalAt(0)
	bestPeak, bestCost := refPlacementKey(p, best, rating, load)
	for d := 1; d <= pref.Slack(); d++ {
		iv := pref.IntervalAt(d)
		peak, cost := refPlacementKey(p, iv, rating, load)
		if peak < bestPeak || (peak == bestPeak && cost < bestCost-1e-12) {
			best, bestPeak, bestCost = iv, peak, cost
		}
	}
	return best
}

func refPlacementKey(p pricing.Pricer, iv core.Interval, rating float64, load *core.Load) (peak, cost float64) {
	for h := max(iv.Begin, 0); h < min(iv.End, core.HoursPerDay); h++ {
		if lv := load[h] + rating; lv > peak {
			peak = lv
		}
	}
	return peak, pricing.MarginalCost(p, load, iv, rating)
}
