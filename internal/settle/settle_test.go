package settle

import (
	"strings"
	"testing"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/pricing"
	"enki/internal/sched"
)

var quad = pricing.Quadratic{Sigma: pricing.DefaultSigma}

func testMachine() Machine {
	return New(Config{Scheduler: &sched.Greedy{Pricer: quad, Rating: 2}, Pricer: quad,
		Mechanism: mechanism.DefaultConfig(), Rating: 2}, 3, "trace", nil)
}

func testReports() []core.Report {
	return []core.Report{
		{ID: 1, Pref: core.MustPreference(18, 22, 2)},
		{ID: 4, Pref: core.MustPreference(17, 23, 2)},
		{ID: 6, Pref: core.MustPreference(19, 24, 3)},
	}
}

// comply returns consumptions that follow the assignments exactly.
func comply(assignments []core.Assignment) []core.Consumption {
	out := make([]core.Consumption, len(assignments))
	for i, a := range assignments {
		out[i] = core.Consumption{ID: a.ID, Interval: a.Interval}
	}
	return out
}

// TestMachineSettlesDegradedDay: one absentee and one dark reporter
// settle as the record's Absent list and substitution, the dark
// household on the imputed defector path, with the status row counting
// both and Theorem 1 exact.
func TestMachineSettlesDegradedDay(t *testing.T) {
	m := testMachine()
	assignments, err := m.Allocate(testReports(), []core.HouseholdID{2})
	if err != nil {
		t.Fatal(err)
	}
	cons := comply(assignments)
	cons[1] = core.Consumption{} // a dark slot's content is ignored
	out, err := m.Settle(cons, []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	r := out.Record
	if r.Day != 3 || r.TraceID != "trace" || len(r.Absent) != 1 || r.Absent[0] != 2 {
		t.Fatalf("record day %d trace %q absent %v", r.Day, r.TraceID, r.Absent)
	}
	if want := mechanism.DarkConsumption(r.Reports[1].Pref); r.Consumptions[1] != (core.Consumption{ID: 4, Interval: want}) {
		t.Errorf("dark consumption %v, want household 4 imputed at %v", r.Consumptions[1], want)
	}
	if r.Flexibility[1] != 0 || !r.Substituted[1] {
		t.Errorf("dark household flexibility %g substituted %v, want the defector path", r.Flexibility[1], r.Substituted)
	}
	st := out.Status
	if st.Households != 4 || st.Settled != 3 || st.Absent != 1 || st.Substituted != 1 || !st.Healthy {
		t.Errorf("status row %+v", st)
	}
	if st.Residual > 1e-9 || st.Residual < -1e-9 {
		t.Errorf("Theorem 1 residual %g", st.Residual)
	}
	if n := r.Notice(2); n.Amount != r.Payments[2] || n.SocialCost != r.SocialCost[2] || n.TotalCost != r.Cost || n.PeakLoad != r.Peak {
		t.Errorf("notice %+v disagrees with the record", n)
	}
	if bad := out.LedgerEntry().Audit(); len(bad) != 0 {
		t.Errorf("ledger audit: %v", bad)
	}
}

// TestMachineRejectsInvalidInput: every malformed phase input fails the
// day with an error naming what was wrong.
func TestMachineRejectsInvalidInput(t *testing.T) {
	reports := testReports
	cases := []struct {
		name    string
		reports []core.Report
		absent  []core.HouseholdID
		consume func([]core.Consumption)
		want    string
	}{
		{name: "no reports", absent: []core.HouseholdID{1, 2}, want: "all 2 dark"},
		{name: "unsorted reports", reports: []core.Report{reports()[1], reports()[0]}, want: "out of order"},
		{name: "duplicate report", reports: []core.Report{reports()[0], reports()[0]}, want: "out of order"},
		{name: "invalid window", reports: []core.Report{{ID: 1, Pref: core.Preference{Window: core.Interval{Begin: 20, End: 18}, Duration: 1}}},
			want: "invalid report"},
		{name: "absent and reported", reports: reports(), absent: []core.HouseholdID{4}, want: "both reported and absent"},
		{name: "unsorted absent", reports: reports(), absent: []core.HouseholdID{3, 2}, want: "out of order"},
		{name: "off-day consumption", reports: reports(),
			consume: func(c []core.Consumption) { c[0].Interval = core.Interval{Begin: 30, End: 32} }, want: "outside day"},
		{name: "wrong duration", reports: reports(),
			consume: func(c []core.Consumption) { c[2].Interval = core.Interval{Begin: 19, End: 21} }, want: "consumed 2 slots, declared 3"},
		{name: "slot of another household", reports: reports(),
			consume: func(c []core.Consumption) { c[1].ID = 6 }, want: "in the slot of household 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine()
			assignments, err := m.Allocate(tc.reports, tc.absent)
			if err == nil {
				cons := comply(assignments)
				tc.consume(cons)
				_, err = m.Settle(cons, nil)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestMachinePhaseOrder: a machine settles one day, in order, once.
func TestMachinePhaseOrder(t *testing.T) {
	m := testMachine()
	if _, err := m.Settle(nil, nil); err == nil {
		t.Error("consumptions accepted before allocation")
	}
	m = testMachine()
	assignments, err := m.Allocate(testReports(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(testReports(), nil); err == nil {
		t.Error("second preference phase accepted")
	}
	if _, err := m.Settle(comply(assignments)[:2], nil); err == nil {
		t.Error("misaligned consumptions accepted")
	}
	if _, err := m.Settle(comply(assignments), nil); err == nil {
		t.Error("a failed day settled on retry")
	}
}
