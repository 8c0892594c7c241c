package main

import (
	"bytes"
	"fmt"
	"math"

	"enki/internal/netproto"
)

// checkError is a failed output check; it names the workload, the day
// and the check.
type checkError struct {
	workload string
	day      int
	check    string
	detail   string
}

func (e *checkError) Error() string {
	return fmt.Sprintf("workload %s: day %d: check %s failed: %s", e.workload, e.day, e.check, e.detail)
}

// theorem1 checks the budget identity Σp = ξ·κ within the tolerance the
// program's own budget-violation counter uses (mechanism's
// RecordSettlementMetrics: 1e-9 relative to ξ·κ).
func theorem1(revenue, cost, xi float64) error {
	want := xi * cost
	if tol := 1e-9 * math.Max(1, math.Abs(want)); math.Abs(revenue-want) > tol {
		return fmt.Errorf("Σp = %.12g, ξ·κ = %.12g (residual %.3g)", revenue, want, revenue-want)
	}
	return nil
}

// checkClusterDay checks Theorem 1 on every settled neighbourhood of a
// cluster day and returns how many households went unbilled.
func checkClusterDay(workload string, rec *netproto.ClusterDayRecord, xi float64) (unbilled int, err error) {
	for _, s := range rec.Shards {
		if s.Err != "" || s.Settled == 0 {
			continue
		}
		if err := theorem1(s.Revenue, s.Cost, xi); err != nil {
			return 0, &checkError{workload: workload, day: rec.Day, check: "theorem1",
				detail: fmt.Sprintf("neighbourhood %d: %v", s.Shard, err)}
		}
	}
	return rec.Households - rec.Settled, nil
}

// checkDayRecord checks Theorem 1 on a center day record and returns
// how many of the members went unbilled.
func checkDayRecord(workload string, rec *netproto.DayRecord, members int, xi float64) (unbilled int, err error) {
	if len(rec.Payments) != len(rec.Reports) {
		return 0, &checkError{workload: workload, day: rec.Day, check: "record",
			detail: fmt.Sprintf("%d payments for %d reports", len(rec.Payments), len(rec.Reports))}
	}
	var revenue float64
	for _, p := range rec.Payments {
		revenue += p
	}
	if err := theorem1(revenue, rec.Cost, xi); err != nil {
		return 0, &checkError{workload: workload, day: rec.Day, check: "theorem1", detail: err.Error()}
	}
	return members - len(rec.Payments), nil
}

// sameBytes fails the named check when got and want differ, naming the
// first differing byte.
func sameBytes(workload string, day int, check string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return &checkError{workload: workload, day: day, check: check,
		detail: fmt.Sprintf("%d vs %d bytes, first difference at byte %d", len(got), len(want), i)}
}
