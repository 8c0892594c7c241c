package mechanism

import (
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
	assigned := []core.Interval{{Begin: 18, End: 20}, {Begin: 20, End: 22}, {Begin: 18, End: 20}}
	entryFor := func(consumed []core.Interval) LedgerEntry {
		c, err := SettleChain(p, DefaultConfig(), 2, prefs, assigned, consumed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return BuildLedgerEntry("t", 1, DefaultConfig(), 2, reports, assigned, consumed, nil,
			c.Predicted, c.Flexibility, c.Defection, c.SocialCost, c.Payments, c.Cost, c.Load.Peak())
	}

	if bad := entryFor(assigned).Audit(); len(bad) != 0 {
		t.Fatalf("compliant day audit: %v", bad)
	}
	offDay := entryFor([]core.Interval{assigned[0], assigned[1], {Begin: 30, End: 32}})
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
