package core_test

import (
	"strings"
	"testing"

	"enki/internal/appliances"
	"enki/internal/coalition"
	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/pricing"
	"enki/internal/sched"
	"enki/internal/settle"
)

// TestConsumptionRuleAtEveryEntryPoint: every settlement entry point —
// the day machine, mechanism.Day.Validate, appliances.Settle and
// coalition.Settle — accepts and rejects the same consumptions of one
// household reported (18, 24, 3) and assigned (18, 21): inside the day
// at the declared duration, wherever the window, and nothing else.
func TestConsumptionRuleAtEveryEntryPoint(t *testing.T) {
	const rating = 3
	quad := pricing.Quadratic{Sigma: pricing.DefaultSigma}
	cfg := mechanism.DefaultConfig()
	pref := core.MustPreference(18, 24, 3)
	typ := core.Type{True: pref, ValuationFactor: 5}
	household := core.Household{ID: 1, Type: typ, Reported: pref}
	assigned := core.Interval{Begin: 18, End: 21}

	entryPoints := []struct {
		name   string
		settle func(consumed core.Interval) error
	}{
		{"settle.Machine", func(consumed core.Interval) error {
			m := settle.New(settle.Config{Scheduler: &sched.Greedy{Pricer: quad, Rating: rating}, Pricer: quad, Mechanism: cfg, Rating: rating}, 1, "t", nil)
			if _, err := m.Allocate([]core.Report{{ID: 1, Pref: pref}}, nil); err != nil {
				t.Fatal(err)
			}
			_, err := m.Settle([]core.Consumption{{ID: 1, Interval: consumed}}, nil)
			return err
		}},
		{"mechanism.Day.Validate", func(consumed core.Interval) error {
			return mechanism.Day{Households: []core.Household{household}, Assignments: []core.Interval{assigned},
				Consumptions: []core.Interval{consumed}, Rating: rating}.Validate()
		}},
		{"appliances.Settle", func(consumed core.Interval) error {
			hs := []appliances.Household{{ID: 1, Appliances: []appliances.Appliance{{Name: "ev", Type: typ, Reported: pref, Rating: rating}}}}
			_, err := appliances.Settle(quad, cfg, hs, []appliances.Plan{{ID: 1, Intervals: []core.Interval{assigned}}},
				[]appliances.Consumption{{ID: 1, Intervals: []core.Interval{consumed}}})
			return err
		}},
		{"coalition.Settle", func(consumed core.Interval) error {
			_, err := coalition.Settle(quad, cfg, []core.Household{household}, []coalition.Coalition{{Members: []int{0}}},
				[]core.Interval{assigned}, []core.Interval{consumed}, rating)
			return err
		}},
	}
	cases := []struct {
		consumed core.Interval
		want     string // "" accepts
	}{
		{assigned, ""},
		{core.Interval{Begin: 8, End: 11}, ""}, // a defection outside the window
		{core.Interval{Begin: 22, End: 25}, "outside day"},
		{core.Interval{Begin: 22, End: 26}, "outside day"},
		{core.Interval{Begin: 18, End: 20}, "consumed 2 slots, declared 3"},
		{core.Interval{Begin: 18, End: 22}, "consumed 4 slots, declared 3"},
		{core.Interval{}, "consumed 0 slots, declared 3"},
	}
	for _, ep := range entryPoints {
		for _, tc := range cases {
			err := ep.settle(tc.consumed)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s rejects the consumption %v: %v", ep.name, tc.consumed, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s consumption %v: err = %v, want one containing %q", ep.name, tc.consumed, err, tc.want)
			}
		}
	}
}
