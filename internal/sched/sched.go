// Package sched implements the neighborhood center's allocation
// schedulers: Enki's greedy flexibility-ordered allocator (Section
// IV-C), the exact Optimal scheduler (Eq. 2, via internal/solver), and
// the baseline allocators used by the ablation benches.
//
// A Scheduler consumes validated household reports and produces one
// assignment per report, each scheduled inside the reported window with
// exactly the reported duration.
package sched

import (
	"fmt"
	"time"

	"enki/internal/core"
)

// Scheduler allocates consumption intervals to reported preferences.
type Scheduler interface {
	// Name identifies the scheduler in experiment output.
	Name() string
	// Allocate returns one assignment per report, in report order.
	// Every assignment satisfies report.Pref.Admits(assignment).
	Allocate(reports []core.Report) ([]core.Assignment, error)
}

// validateReports guards every scheduler's input.
func validateReports(reports []core.Report) error {
	if len(reports) == 0 {
		return fmt.Errorf("sched: no reports")
	}
	return core.ValidateReports(reports)
}

// assignmentsOf pairs chosen intervals with household IDs.
func assignmentsOf(reports []core.Report, intervals []core.Interval) []core.Assignment {
	out := make([]core.Assignment, len(reports))
	for i, r := range reports {
		out[i] = core.Assignment{ID: r.ID, Interval: intervals[i]}
	}
	return out
}

// CheckAssignments verifies that every assignment is admitted by its
// report; schedulers use it as a postcondition and tests as an oracle.
func CheckAssignments(reports []core.Report, assignments []core.Assignment) error {
	if len(reports) != len(assignments) {
		return fmt.Errorf("sched: %d reports but %d assignments", len(reports), len(assignments))
	}
	for i, r := range reports {
		a := assignments[i]
		if a.ID != r.ID {
			return fmt.Errorf("sched: assignment %d has id %d, want %d", i, a.ID, r.ID)
		}
		if !r.Pref.Admits(a.Interval) {
			return fmt.Errorf("sched: assignment %v not admitted by report %v of household %d",
				a.Interval, r.Pref, r.ID)
		}
	}
	return nil
}

// observeAllocation records one completed allocation in the default
// metrics registry: a per-scheduler call counter, latency histogram,
// and the deferment counters (slots deferred past each report's window
// start, and how many households were deferred at all). The deferment
// counters are pure functions of the allocation, so they obey the
// engine's bit-identical-at-any-worker-count contract; only the
// latency histogram is timing. The handles come from the generation-
// keyed cache and the deferments are folded inline, so the call is
// allocation-free on the hot path.
func observeAllocation(scheduler string, reports []core.Report, assignments []core.Assignment, elapsed time.Duration) {
	m := metricsFor(scheduler)
	m.total.Inc()
	m.latency.Observe(float64(elapsed.Nanoseconds()) / 1e6)
	var slots, deferred uint64
	for i, r := range reports {
		if d := int(assignments[i].Interval.Begin - r.Pref.Window.Begin); d > 0 {
			slots += uint64(d)
			deferred++
		}
	}
	m.slots.Add(slots)
	m.deferred.Add(deferred)
}

// LoadOfAssignments aggregates assignments into an hourly load profile.
func LoadOfAssignments(assignments []core.Assignment, rating float64) core.Load {
	var l core.Load
	for _, a := range assignments {
		l.AddInterval(a.Interval, rating)
	}
	return l
}
