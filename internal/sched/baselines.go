package sched

import (
	"sort"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/pricing"
)

// Earliest is the uncoordinated baseline: every household starts at the
// beginning of its reported window (deferment 0), modeling a
// neighborhood with no demand-side management — everyone consumes at
// will as early as their preference allows.
type Earliest struct{}

var _ Scheduler = Earliest{}

// Name implements Scheduler.
func (Earliest) Name() string { return "earliest" }

// Allocate implements Scheduler.
func (Earliest) Allocate(reports []core.Report) ([]core.Assignment, error) {
	if err := validateReports(reports); err != nil {
		return nil, err
	}
	start := time.Now()
	intervals := make([]core.Interval, len(reports))
	for i, r := range reports {
		intervals[i] = r.Pref.IntervalAt(0)
	}
	assignments := assignmentsOf(reports, intervals)
	observeAllocation(Earliest{}.Name(), reports, assignments, time.Since(start))
	return assignments, nil
}

// Random places every household at a uniformly random feasible
// deferment — the "price signal without coordination" strawman.
type Random struct {
	// RNG drives the placements; it must be non-nil.
	RNG *dist.RNG
}

var _ Scheduler = (*Random)(nil)

// Name implements Scheduler.
func (*Random) Name() string { return "random" }

// Allocate implements Scheduler.
func (s *Random) Allocate(reports []core.Report) ([]core.Assignment, error) {
	if err := validateReports(reports); err != nil {
		return nil, err
	}
	start := time.Now()
	intervals := make([]core.Interval, len(reports))
	for i, r := range reports {
		intervals[i] = r.Pref.IntervalAt(s.RNG.Intn(r.Pref.StartChoices()))
	}
	assignments := assignmentsOf(reports, intervals)
	observeAllocation(s.Name(), reports, assignments, time.Since(start))
	return assignments, nil
}

// GreedyOrdered is the ordering-ablation scheduler: identical greedy
// placement to Enki's allocator but with a configurable processing
// order, isolating the contribution of the flexibility ordering
// (DESIGN.md ablation "greedy ordering by flexibility vs alternatives").
type GreedyOrdered struct {
	// Pricer prices hourly load. It must be non-nil.
	Pricer pricing.Pricer
	// Rating is the per-household power rating r in kW.
	Rating float64
	// Order selects the processing order.
	Order Ordering
	// RNG is required for OrderShuffled.
	RNG *dist.RNG
}

// Ordering enumerates the ablation processing orders.
type Ordering int

// Processing orders for GreedyOrdered.
const (
	// OrderReport processes households in report order.
	OrderReport Ordering = iota + 1
	// OrderShuffled processes households in a random order.
	OrderShuffled
	// OrderWidestFirst processes the most flexible windows first —
	// the reverse of Enki's rule.
	OrderWidestFirst
)

var _ Scheduler = (*GreedyOrdered)(nil)

// Name implements Scheduler.
func (s *GreedyOrdered) Name() string {
	switch s.Order {
	case OrderShuffled:
		return "greedy-shuffled"
	case OrderWidestFirst:
		return "greedy-widest-first"
	default:
		return "greedy-report-order"
	}
}

// Allocate implements Scheduler.
func (s *GreedyOrdered) Allocate(reports []core.Report) ([]core.Assignment, error) {
	if err := validateReports(reports); err != nil {
		return nil, err
	}
	start := time.Now()
	order := make([]int, len(reports))
	for i := range order {
		order[i] = i
	}
	switch s.Order {
	case OrderShuffled:
		s.RNG.ShuffleInts(order)
	case OrderWidestFirst:
		sort.SliceStable(order, func(a, b int) bool {
			return reports[order[a]].Pref.Slack() > reports[order[b]].Pref.Slack()
		})
	}

	inner := Greedy{Pricer: s.Pricer}
	quad, isQuad := s.Pricer.(pricing.Quadratic)
	var deque [core.HoursPerDay]int
	intervals := make([]core.Interval, len(reports))
	var load core.Load
	for _, pos := range order {
		iv := inner.bestPlacement(reports[pos].Pref, s.Rating, &load, quad, isQuad, &deque)
		intervals[pos] = iv
		load.AddInterval(iv, s.Rating)
	}
	assignments := assignmentsOf(reports, intervals)
	if err := CheckAssignments(reports, assignments); err != nil {
		return nil, err
	}
	observeAllocation(s.Name(), reports, assignments, time.Since(start))
	return assignments, nil
}

// LocalSearch starts from a base scheduler's allocation and applies
// single-household moves until no move lowers the neighborhood cost.
// With Earliest as base it is a decentralized best-response dynamic in
// the style of Mohsenian-Rad et al.'s game-theoretic DSM.
type LocalSearch struct {
	// Base produces the starting allocation; it must be non-nil.
	Base Scheduler
	// Pricer prices hourly load. It must be non-nil.
	Pricer pricing.Pricer
	// Rating is the per-household power rating r in kW.
	Rating float64
	// MaxSweeps caps improvement passes; 0 means sweep to fixpoint.
	MaxSweeps int
}

var _ Scheduler = (*LocalSearch)(nil)

// Name implements Scheduler.
func (s *LocalSearch) Name() string { return "local-search(" + s.Base.Name() + ")" }

// Allocate implements Scheduler.
func (s *LocalSearch) Allocate(reports []core.Report) ([]core.Assignment, error) {
	start := time.Now()
	assignments, err := s.Base.Allocate(reports)
	if err != nil {
		return nil, err
	}
	load := LoadOfAssignments(assignments, s.Rating)

	sweeps := 0
	improved := true
	for improved && (s.MaxSweeps == 0 || sweeps < s.MaxSweeps) {
		improved = false
		sweeps++
		for i, r := range reports {
			cur := assignments[i].Interval
			load.RemoveInterval(cur, s.Rating)
			bestIv := cur
			bestM := pricing.MarginalCost(s.Pricer, &load, cur, s.Rating)
			for d := 0; d <= r.Pref.Slack(); d++ {
				iv := r.Pref.IntervalAt(d)
				if iv == cur {
					continue
				}
				if m := pricing.MarginalCost(s.Pricer, &load, iv, s.Rating); m < bestM-1e-12 {
					bestIv, bestM = iv, m
				}
			}
			load.AddInterval(bestIv, s.Rating)
			if bestIv != cur {
				assignments[i].Interval = bestIv
				improved = true
			}
		}
	}
	if err := CheckAssignments(reports, assignments); err != nil {
		return nil, err
	}
	observeAllocation(s.Name(), reports, assignments, time.Since(start))
	return assignments, nil
}
