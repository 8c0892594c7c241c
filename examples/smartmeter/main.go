// Smartmeter: the full ECC story of Section I. Each household's smart
// meter learns its daily consumption pattern online, predicts
// tomorrow's demand, and reports it to the neighborhood center over the
// Figure 1 TCP protocol — no manual preference entry.
//
// Early on the ECCs' predictions are poor (cold start), so households
// are sometimes forced to defect when the allocation misses their real
// routine. As the learners converge, defections and the defectors'
// bills disappear.
//
// Run with:
//
//	go run ./examples/smartmeter
package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"enki/internal/core"
	"enki/internal/ecc"
	"enki/internal/netproto"
	"enki/internal/obs"
)

// learnedPolicy is an ECC-driven household agent: it reports what its
// learner predicts, consumes per its hidden tolerance window, and feeds
// every realized day back into the learner. The ECC never sees the
// tolerance directly — it discovers it from where the household
// actually ends up consuming (defections included).
type learnedPolicy struct {
	reporter  *ecc.Reporter
	tolerance core.Preference // the household's hidden true window
}

func newLearnedPolicy(mu float64, dur int) (*learnedPolicy, error) {
	learner, err := ecc.NewLearner(ecc.WithAlpha(0.3))
	if err != nil {
		return nil, err
	}
	begin := int(math.Round(mu)) - 2
	if begin < 0 {
		begin = 0
	}
	end := begin + dur + 4
	if end > core.HoursPerDay {
		end = core.HoursPerDay
		begin = end - dur - 4
	}
	return &learnedPolicy{
		reporter: &ecc.Reporter{
			Learner:  learner,
			Fallback: core.MustPreference(0, 24, dur), // know nothing yet
			MinDays:  2,
		},
		tolerance: core.Preference{
			Window:   core.Interval{Begin: begin, End: end},
			Duration: dur,
		},
	}, nil
}

func (p *learnedPolicy) Report(int) core.Preference {
	forecast, err := p.reporter.Report()
	if err != nil {
		return core.Preference{Window: core.Interval{Begin: 0, End: 24}, Duration: p.tolerance.Duration}
	}
	return forecast.Preference
}

func (p *learnedPolicy) Consume(_ int, allocation core.Interval) core.Interval {
	consumed := core.ClosestConsumption(p.tolerance, allocation)
	_ = p.reporter.Learner.Observe(consumed)
	return consumed
}

func (p *learnedPolicy) Feedback(int, netproto.PaymentDetail) {}

func main() {
	if err := run(); err != nil {
		obs.Logger().Error("smartmeter example failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	// The defaults are the paper's: quadratic pricing, the greedy
	// scheduler, k = 1, ξ = 1.2 and a 2 kW rating.
	center, err := netproto.StartCenter("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer center.Close()

	routines := []struct {
		mu  float64
		dur int
	}{
		{18.5, 2}, // dinner-time EV charge
		{19.5, 3}, // evening laundry + dryer
		{17.0, 1}, // quick cooker
		{20.0, 2}, // late dishwasher
		{8.0, 2},  // morning heat pump boost
	}
	agents := make([]*netproto.Agent, len(routines))
	for i, r := range routines {
		policy, err := newLearnedPolicy(r.mu, r.dur)
		if err != nil {
			return err
		}
		a, err := netproto.Connect(ctx, center.Addr(), core.HouseholdID(i), policy)
		if err != nil {
			return err
		}
		agents[i] = a
		defer a.Close()
	}
	wait, cancel := context.WithTimeout(ctx, netproto.DefaultPhaseDeadline)
	defer cancel()
	if err := center.WaitForAgentsContext(wait, len(agents)); err != nil {
		return err
	}

	fmt.Println("== ECC smart meters learning household routines ==")
	fmt.Printf("%-5s %-12s %-10s %-12s\n", "day", "defections", "peak", "cost")
	const days = 21
	var earlyDefects, lateDefects int
	for day := 1; day <= days; day++ {
		record, err := center.RunDayContext(ctx, day)
		if err != nil {
			return err
		}
		defects := 0
		for i := range record.Reports {
			if record.Consumptions[i].Interval != record.Assignments[i].Interval {
				defects++
			}
		}
		if day <= 7 {
			earlyDefects += defects
		} else if day > days-7 {
			lateDefects += defects
		}
		if day <= 5 || day%7 == 0 {
			fmt.Printf("%-5d %-12d %-10.1f $%-12.2f\n", day, defects, record.Peak, record.Cost)
		}
	}
	fmt.Printf("\nfirst week: %d defections; last week: %d — the ECCs learned the routines\n",
		earlyDefects, lateDefects)
	fmt.Println("(reports start as all-day fallbacks, then narrow to each household's true pattern)")
	return nil
}
