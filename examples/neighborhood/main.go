// Neighborhood: the distributed deployment of Figure 1. A center
// process and several household ECC agents talk the day-ahead protocol
// over loopback TCP — the same binaries as cmd/enkid and cmd/enkiagent,
// driven in-process here so the example is self-contained.
//
// One household misreports its window and defects; the settlement shows
// Enki charging it more than its truthful neighbors.
//
// Run with:
//
//	go run ./examples/neighborhood
package main

import (
	"context"
	"fmt"
	"os"

	"enki/internal/core"
	"enki/internal/netproto"
	"enki/internal/obs"
)

func main() {
	if err := run(); err != nil {
		obs.Logger().Error("neighborhood example failed", "err", err)
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
	fmt.Printf("center listening on %s\n", center.Addr())

	// Three truthful agents plus one misreporter that claims an early
	// window but truly needs the evening.
	policies := []netproto.Policy{
		&netproto.Truthful{Type: core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}},
		&netproto.Truthful{Type: core.Type{True: core.MustPreference(17, 23, 2), ValuationFactor: 4}},
		&netproto.Truthful{Type: core.Type{True: core.MustPreference(19, 24, 3), ValuationFactor: 6}},
		&netproto.Misreporter{
			Type:     core.Type{True: core.MustPreference(18, 20, 2), ValuationFactor: 5},
			Reported: core.MustPreference(10, 14, 2),
		},
	}
	agents := make([]*netproto.Agent, len(policies))
	for i, p := range policies {
		a, err := netproto.Connect(ctx, center.Addr(), core.HouseholdID(i), p)
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

	for day := 1; day <= 3; day++ {
		record, err := center.RunDayContext(ctx, day)
		if err != nil {
			return err
		}
		fmt.Printf("\nday %d: neighborhood pays $%.2f, peak %.1f kWh\n", day, record.Cost, record.Peak)
		for i, r := range record.Reports {
			note := ""
			if record.Consumptions[i].Interval != record.Assignments[i].Interval {
				note = "  <- defected"
			}
			fmt.Printf("  household %d: reported %v -> allocated %v, consumed %v, pays $%.2f%s\n",
				r.ID, r.Pref, record.Assignments[i].Interval,
				record.Consumptions[i].Interval, record.Payments[i], note)
		}
	}
	fmt.Println("\nthe misreporter's defection raises its social-cost share every day;")
	fmt.Println("its truthful neighbors pay less for the same energy.")
	return nil
}
