package mechanism

import (
	"encoding/json"
	"strings"
	"testing"

	"enki/internal/core"
	"enki/internal/pricing"
)

// TestAuditFlagsOffDayIntervals settles a day whose last household
// consumed the off-day interval (30, 32) for its 2-slot preference, the
// way a center that checked only the consumption's length did, and
// requires the audit to flag exactly that row: the chain is otherwise
// consistent, since the off-day load silently dropped out of κ(ω).
func TestAuditFlagsOffDayIntervals(t *testing.T) {
	if bad := auditTestEntry(t, auditTestAssigned).Audit(); len(bad) != 0 {
		t.Fatalf("compliant day audit: %v", bad)
	}
	offDay := auditTestEntry(t, []core.Interval{auditTestAssigned[0], auditTestAssigned[1], {Begin: 30, End: 32}})
	bad := offDay.Audit()
	if len(bad) != 1 || !strings.Contains(bad[0], "household 2: consumed interval") {
		t.Fatalf("off-day consumption audit = %v, want one consumed-interval mismatch for household 2", bad)
	}

	offDay.Households[1].Assigned = core.Interval{Begin: 23, End: 25}
	found := false
	for _, msg := range offDay.Audit() {
		found = found || strings.Contains(msg, "household 1: assigned interval")
	}
	if !found {
		t.Errorf("off-day assignment not flagged: %v", offDay.Audit())
	}
}

// TestAuditFlagsRowsTheMachineRejects: the audit applies the day
// machine's rules to every row, so a line tampered past them fails it
// even where the equation chain still reads consistent: a defector's
// consumption stretched to 3 slots for its 2-slot report, and a
// compliant row moved out of its reported window (its deferment clamps
// to 0 either way).
func TestAuditFlagsRowsTheMachineRejects(t *testing.T) {
	stretched := auditTestEntry(t, []core.Interval{auditTestAssigned[0], {Begin: 16, End: 18}, auditTestAssigned[2]})
	if bad := stretched.Audit(); len(bad) != 0 {
		t.Fatalf("defector day audit: %v", bad)
	}
	stretched.Households[1].Consumed = core.Interval{Begin: 15, End: 18}
	want := "household 1: consumed interval (15, 18): invalid consumption: consumed 3 slots, declared 2"
	if bad := stretched.Audit(); len(bad) != 1 || bad[0] != want {
		t.Errorf("stretched consumption audit = %q, want [%q]", bad, want)
	}

	moved := auditTestEntry(t, auditTestAssigned)
	moved.Households[2].Assigned = core.Interval{Begin: 10, End: 12}
	moved.Households[2].Consumed = core.Interval{Begin: 10, End: 12}
	want = "household 2: assigned interval (10, 12) not admitted by report (18, 20, 2)"
	if bad := moved.Audit(); len(bad) != 1 || bad[0] != want {
		t.Errorf("moved compliant row audit = %q, want [%q]", bad, want)
	}
}

// TestAuditFlagsAbsentList: the absentees must be listed in ascending
// order, each once, and none of them billed. settle.Machine rejects all
// three, so only a damaged or forged ledger trips the check.
func TestAuditFlagsAbsentList(t *testing.T) {
	for _, tc := range []struct {
		absent []core.HouseholdID
		want   string // the one finding, or "" for a clean audit
	}{
		{nil, ""},
		{[]core.HouseholdID{3, 5, 9}, ""},
		{[]core.HouseholdID{3, 9, 5}, "household 5: absent list out of order after 9"},
		{[]core.HouseholdID{3, 3}, "household 3: listed absent twice"},
		{[]core.HouseholdID{1, 3}, "household 1: listed absent but billed"},
	} {
		e := auditTestEntry(t, auditTestAssigned)
		e.Absent = tc.absent
		bad := e.Audit()
		if tc.want == "" && len(bad) != 0 || tc.want != "" && (len(bad) != 1 || bad[0] != tc.want) {
			t.Errorf("absent %v: audit %q, want %q", tc.absent, bad, tc.want)
		}
	}
}

// TestAuditLines: each JSON line is audited in order with its day,
// trace and totals, and a line that is not JSON is skipped.
func TestAuditLines(t *testing.T) {
	e := auditTestEntry(t, auditTestAssigned)
	clean, err := e.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Day = 2
	e.Households[0].Payment++
	e.Households[1].Payment--
	moved, err := e.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	days := AuditLines([]json.RawMessage{clean, json.RawMessage("not json"), moved})
	if len(days) != 2 {
		t.Fatalf("%d days audited, want 2 (the non-JSON line skipped)", len(days))
	}
	if d := days[0]; d.Day != 1 || d.TraceID != "t" || d.Cost != e.Cost || d.Revenue != e.Revenue || len(d.Findings) != 0 {
		t.Errorf("clean day %+v", d)
	}
	if d := days[1]; d.Day != 2 || len(d.Findings) != 2 ||
		!strings.HasPrefix(d.Findings[0], "household 0: Eq. 7 payment") ||
		!strings.HasPrefix(d.Findings[1], "household 1: Eq. 7 payment") {
		t.Errorf("moved-dollar day %+v, want two Eq. 7 findings", d)
	}
}

// auditTestAssigned is the allocation of auditTestEntry's three
// households.
var auditTestAssigned = []core.Interval{{Begin: 18, End: 20}, {Begin: 20, End: 22}, {Begin: 18, End: 20}}

// auditTestEntry settles three households (IDs 0–2) that were assigned
// auditTestAssigned and consumed consumed, and returns the day's
// ledger entry.
func auditTestEntry(t *testing.T, consumed []core.Interval) LedgerEntry {
	t.Helper()
	p := pricing.Quadratic{Sigma: pricing.DefaultSigma}
	reports := []core.Report{
		{ID: 0, Pref: core.MustPreference(18, 22, 2)},
		{ID: 1, Pref: core.MustPreference(17, 23, 2)},
		{ID: 2, Pref: core.MustPreference(18, 20, 2)},
	}
	prefs := make([]core.Preference, len(reports))
	for i, r := range reports {
		prefs[i] = r.Pref
	}
	c, err := SettleChain(p, DefaultConfig(), 2, prefs, auditTestAssigned, consumed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return BuildLedgerEntry("t", 1, DefaultConfig(), 2, reports, auditTestAssigned, consumed, nil,
		c.Predicted, c.Flexibility, c.Defection, c.SocialCost, c.Payments, c.Cost, c.Load.Peak())
}
