package sim

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/pricing"
	"enki/internal/sched"
)

var quad = pricing.Quadratic{Sigma: pricing.DefaultSigma}

func testConfig() Config {
	return Config{
		Scheduler: &sched.Greedy{Pricer: quad, Rating: 2},
		Pricer:    quad,
		Mechanism: mechanism.DefaultConfig(),
		Rating:    2,
	}
}

func truthfulPolicies() []netproto.Policy {
	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
		{True: core.MustPreference(19, 24, 3), ValuationFactor: 6},
		{True: core.MustPreference(8, 14, 2), ValuationFactor: 2},
	}
	out := make([]netproto.Policy, len(types))
	for i, typ := range types {
		out[i] = &netproto.Truthful{Type: typ}
	}
	return out
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(testConfig(), nil, 3); err == nil {
		t.Error("no policies should be rejected")
	}
	if _, err := Run(testConfig(), truthfulPolicies(), 0); err == nil {
		t.Error("zero days should be rejected")
	}
	bad := testConfig()
	bad.Scheduler = nil
	if _, err := Run(bad, truthfulPolicies(), 1); err == nil {
		t.Error("nil scheduler should be rejected")
	}
	bad = testConfig()
	bad.Pricer = nil
	if _, err := Run(bad, truthfulPolicies(), 1); err == nil {
		t.Error("nil pricer should be rejected")
	}
	bad = testConfig()
	bad.Rating = 0
	if _, err := Run(bad, truthfulPolicies(), 1); err == nil {
		t.Error("zero rating should be rejected")
	}
}

func TestTruthfulRunNoDefections(t *testing.T) {
	res, err := Run(testConfig(), truthfulPolicies(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 5 {
		t.Fatalf("got %d days, want 5", len(res.Days))
	}
	if res.TotalDefections() != 0 {
		t.Errorf("truthful run has %d defections", res.TotalDefections())
	}
	for _, d := range res.Days {
		var revenue float64
		for _, p := range d.Payments {
			revenue += p
		}
		if math.Abs(revenue-mechanism.DefaultXi*d.Cost) > 1e-9 {
			t.Errorf("day %d: revenue %g != ξκ %g", d.Day, revenue, mechanism.DefaultXi*d.Cost)
		}
		if d.PAR < 1 {
			t.Errorf("day %d: PAR %g below 1", d.Day, d.PAR)
		}
	}
	if len(res.CostSeries()) != 5 || len(res.DefectionSeries()) != 5 {
		t.Error("series lengths wrong")
	}
}

func TestMisreporterPunishedEveryDay(t *testing.T) {
	policies := truthfulPolicies()
	policies = append(policies, &netproto.Misreporter{
		Type:     core.Type{True: core.MustPreference(18, 20, 2), ValuationFactor: 5},
		Reported: core.MustPreference(8, 12, 2),
	})
	res, err := Run(testConfig(), policies, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDefections() != 4 {
		t.Errorf("misreporter should defect every day, got %d/4", res.TotalDefections())
	}
	for _, d := range res.Days {
		idx := len(policies) - 1
		if d.DefectionSc[idx] <= 0 {
			t.Errorf("day %d: defector score %g", d.Day, d.DefectionSc[idx])
		}
		var maxOther float64
		for i, p := range d.Payments[:idx] {
			if p > maxOther {
				maxOther = p
			}
			_ = i
		}
		if d.Payments[idx] <= maxOther {
			t.Errorf("day %d: defector pays %g, max truthful %g", d.Day, d.Payments[idx], maxOther)
		}
	}
}

// TestSimMatchesNetworkCenter is the layering guarantee: the in-process
// driver and the TCP center produce identical settlements for the same
// policies and deterministic scheduler.
func TestSimMatchesNetworkCenter(t *testing.T) {
	mkPolicies := func() []netproto.Policy {
		return []netproto.Policy{
			&netproto.Truthful{Type: core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}},
			&netproto.Truthful{Type: core.Type{True: core.MustPreference(17, 23, 2), ValuationFactor: 4}},
			&netproto.Misreporter{
				Type:     core.Type{True: core.MustPreference(18, 20, 2), ValuationFactor: 5},
				Reported: core.MustPreference(10, 14, 2),
			},
		}
	}

	// In-process.
	simRes, err := Run(testConfig(), mkPolicies(), 2)
	if err != nil {
		t.Fatal(err)
	}

	// Over TCP.
	center, err := netproto.StartCenter("127.0.0.1:0",
		netproto.WithScheduler(&sched.Greedy{Pricer: quad, Rating: 2}),
		netproto.WithPricer(quad),
		netproto.WithMechanism(mechanism.DefaultConfig()),
		netproto.WithRating(2),
		netproto.WithPhaseDeadline(5*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer center.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, p := range mkPolicies() {
		a, err := netproto.Connect(ctx, center.Addr(), core.HouseholdID(i), p)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	if err := center.WaitForAgentsContext(ctx, 3); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= 2; day++ {
		record, err := center.RunDayContext(context.Background(), day)
		if err != nil {
			t.Fatal(err)
		}
		simDay := simRes.Days[day-1]
		if math.Abs(record.Cost-simDay.Cost) > 1e-9 {
			t.Errorf("day %d: TCP cost %g != sim cost %g", day, record.Cost, simDay.Cost)
		}
		for i := range record.Payments {
			if math.Abs(record.Payments[i]-simDay.Payments[i]) > 1e-9 {
				t.Errorf("day %d household %d: TCP payment %g != sim payment %g",
					day, i, record.Payments[i], simDay.Payments[i])
			}
		}
	}
}

func TestRunRejectsInvalidPolicyOutput(t *testing.T) {
	policies := []netproto.Policy{badPolicy{}}
	if _, err := Run(testConfig(), policies, 1); err == nil {
		t.Error("invalid report should fail the run")
	}
}

// badPolicy reports an infeasible preference.
type badPolicy struct{}

func (badPolicy) Report(int) core.Preference {
	return core.Preference{Window: core.Interval{Begin: 20, End: 18}, Duration: 1}
}
func (badPolicy) Consume(_ int, a core.Interval) core.Interval { return a }
func (badPolicy) Feedback(int, netproto.PaymentDetail)         {}

// offDayPolicy reports its true 2-slot evening preference and then
// consumes the off-day interval (30, 32): the right duration, outside
// the day.
type offDayPolicy struct{ netproto.Truthful }

func (*offDayPolicy) Consume(int, core.Interval) core.Interval {
	return core.Interval{Begin: 30, End: 32}
}

// TestRunRejectsOffDayConsumption: a consumption outside the day fails
// the run instead of settling with its load dropped from κ(ω).
func TestRunRejectsOffDayConsumption(t *testing.T) {
	offender := &offDayPolicy{netproto.Truthful{Type: core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}}}
	_, err := Run(testConfig(), append(truthfulPolicies(), offender), 1)
	if err == nil || !strings.Contains(err.Error(), "outside day") {
		t.Fatalf("off-day consumption: err = %v, want an outside-day rejection", err)
	}
}
