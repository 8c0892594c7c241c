package appliances

import (
	"strconv"
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/pricing"
)

// corpusHouseholds draws one random neighbourhood for the differential
// test: 1–12 households of 1–3 appliances each, windows from rigid to
// whole-day, and ratings and base loads that are sometimes round (so
// peaks tie and the marginal-cost tie-breaker decides) and sometimes
// not.
func corpusHouseholds(rng *dist.RNG) []Household {
	hs := make([]Household, 1+rng.Intn(12))
	for hi := range hs {
		apps := make([]Appliance, 1+rng.Intn(3))
		for ai := range apps {
			begin := rng.Intn(core.HoursPerDay)
			width := 1 + rng.Intn(core.HoursPerDay-begin)
			pref := core.Preference{Window: core.Interval{Begin: begin, End: begin + width}, Duration: 1 + rng.Intn(width)}
			rating := float64(1 + rng.Intn(3))
			if rng.Bool(0.5) {
				rating = 0.5 + 3.5*rng.Float64()
			}
			apps[ai] = Appliance{
				Name:     strconv.Itoa(ai),
				Type:     core.Type{True: pref, ValuationFactor: 5},
				Reported: pref,
				Rating:   rating,
			}
		}
		base := 0.5 * float64(rng.Intn(3))
		if rng.Bool(0.5) {
			base = 1.5 * rng.Float64()
		}
		hs[hi] = Household{ID: core.HouseholdID(hi), BaseLoad: base, Appliances: apps}
	}
	return hs
}

// TestDifferentialAllocate replays Allocate and the retained appliance
// allocator (reference_test.go) over 3,000 seeded neighbourhoods under
// quadratic and piecewise pricing, with and without RNG tie-breaking,
// and requires bit-identical plans.
func TestDifferentialAllocate(t *testing.T) {
	piecewise, err := pricing.NewPiecewise([]pricing.Step{{Threshold: 0, Rate: 0.5}, {Threshold: 8, Rate: 3}})
	if err != nil {
		t.Fatal(err)
	}
	pricers := []struct {
		name string
		p    pricing.Pricer
	}{
		{"quadratic", quad},
		{"piecewise", piecewise},
	}
	const neighbourhoods = 3000
	for _, pr := range pricers {
		t.Run(pr.name, func(t *testing.T) {
			for k := 0; k < neighbourhoods; k++ {
				seed := uint64(k + 1)
				hs := corpusHouseholds(dist.New(seed))
				for _, useRNG := range []bool{false, true} {
					var rng, refRNG *dist.RNG
					if useRNG {
						rng, refRNG = dist.New(seed*7919), dist.New(seed*7919)
					}
					got, err := Allocate(pr.p, hs, rng)
					if err != nil {
						t.Fatalf("neighbourhood %d: %v", k, err)
					}
					want, err := refAllocate(pr.p, hs, refRNG)
					if err != nil {
						t.Fatalf("neighbourhood %d: reference: %v", k, err)
					}
					for hi := range want {
						for ai, iv := range want[hi].Intervals {
							if got[hi].ID != want[hi].ID || got[hi].Intervals[ai] != iv {
								t.Fatalf("neighbourhood %d (rng=%v): household %d appliance %d: %v, reference %v",
									k, useRNG, want[hi].ID, ai, got[hi].Intervals[ai], iv)
							}
						}
					}
				}
			}
		})
	}
}
