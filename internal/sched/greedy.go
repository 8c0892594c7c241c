package sched

import (
	"fmt"
	"slices"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/pricing"
)

// Greedy is Enki's allocator (Section IV-C): it computes each
// household's predicted flexibility score assuming truthful reports,
// processes households in order of increasing flexibility (ties broken
// randomly), and places each household at the deferment that greedily
// minimizes the peak load of the households handled so far, with the
// marginal cost and then the earliest start as tie-breakers.
//
// The hot path is allocation-free in steady state: working buffers come
// from a pooled (or caller-owned) Scratch, the per-candidate peak is
// tracked incrementally with a sliding-window monotonic deque instead
// of per-slot rescans, and the quadratic Eq. 1 pricer is devirtualized
// so the marginal-cost tie-breaker runs without interface dispatch. The
// placement decisions are bit-identical to the seed implementation
// (internal/sched/reference_test.go), which the differential suite
// enforces over a seeded corpus.
type Greedy struct {
	// Pricer prices hourly load (used for the cost tie-breaker). It
	// must be non-nil.
	Pricer pricing.Pricer
	// Rating is the per-household power rating r in kW.
	Rating float64
	// RNG breaks flexibility ties randomly, as the paper prescribes.
	// A nil RNG breaks ties deterministically by household position,
	// which experiments use for reproducibility.
	RNG *dist.RNG
}

var _ Scheduler = (*Greedy)(nil)

// Name implements Scheduler.
func (g *Greedy) Name() string { return "enki-greedy" }

// Allocate implements Scheduler. It borrows a pooled Scratch, so the
// only steady-state allocation is the returned assignment slice; use
// AllocateInto to eliminate that one too.
func (g *Greedy) Allocate(reports []core.Report) ([]core.Assignment, error) {
	return g.AllocateInto(nil, nil, reports)
}

// AllocateInto is Allocate with caller-controlled memory: scratch
// buffers come from s (borrowed from the internal pool when s is nil)
// and the assignments are appended to dst[:0] (so a dst with capacity
// for len(reports) entries makes the call allocation-free). The
// returned slice aliases dst when it fits. A Scratch must not be shared
// between concurrent calls; see the Scratch ownership contract.
func (g *Greedy) AllocateInto(s *Scratch, dst []core.Assignment, reports []core.Report) ([]core.Assignment, error) {
	pooled := s == nil
	if pooled {
		s = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(s)
	}
	if err := validateReportsScratch(s, reports); err != nil {
		return nil, err
	}
	start := time.Now()
	n := len(reports)
	s.grow(n)

	for i, r := range reports {
		s.prefs[i] = r.Pref
	}
	g.order(s)

	quad, isQuad := g.Pricer.(pricing.Quadratic)
	var load core.Load
	for _, pos := range s.order {
		best := g.bestPlacement(s.prefs[pos], g.Rating, &load, quad, isQuad, &s.deque)
		s.intervals[pos] = best
		load.AddInterval(best, g.Rating)
	}

	assignments := dst
	if cap(assignments) < n {
		assignments = make([]core.Assignment, n)
	}
	assignments = assignments[:n]
	for i, r := range reports {
		assignments[i] = core.Assignment{ID: r.ID, Interval: s.intervals[i]}
	}
	if err := CheckAssignments(reports, assignments); err != nil {
		return nil, err
	}
	observeAllocation(g.Name(), reports, assignments, time.Since(start))
	return assignments, nil
}

// PlaceAll is Allocate's greedy over items with ratings of their own,
// the multi-appliance extension's allocator: it orders prefs as
// Allocate orders reports, places item i at ratings[i] on top of load
// (which it adds each placement to) by Allocate's rule, and returns the
// intervals in input order. It validates nothing, ignores g.Rating and
// records no metrics.
func (g *Greedy) PlaceAll(prefs []core.Preference, ratings []float64, load *core.Load) []core.Interval {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	s.grow(len(prefs))
	copy(s.prefs, prefs)
	g.order(s)

	quad, isQuad := g.Pricer.(pricing.Quadratic)
	out := make([]core.Interval, len(prefs))
	for _, pos := range s.order {
		best := g.bestPlacement(s.prefs[pos], ratings[pos], load, quad, isQuad, &s.deque)
		out[pos] = best
		load.AddInterval(best, ratings[pos])
	}
	return out
}

// order fills s.order with the Sec. IV-C processing order of s.prefs:
// increasing predicted flexibility (Eq. 4), ties broken by jitter.
// Random jitter implements the paper's "breaking ties randomly"; it is
// drawn in input order so the RNG stream matches the seed
// implementation draw for draw.
func (g *Greedy) order(s *Scratch) {
	mechanism.FlexibilityScoresInto(s.flex, s.prefs)
	for i := range s.order {
		j := float64(i) // deterministic fallback: input order
		if g.RNG != nil {
			j = g.RNG.Float64()
		}
		s.jitter[i] = j
		s.order[i] = i
	}
	// The (flex, jitter) key is a strict total order (jitter entries are
	// distinct), so any comparison sort yields the same permutation the
	// seed's sort.Slice did.
	flex, jitter := s.flex, s.jitter
	slices.SortFunc(s.order, func(a, b int) int {
		fa, fb := flex[a], flex[b]
		if fa != fb {
			if fa < fb {
				return -1
			}
			return 1
		}
		ja, jb := jitter[a], jitter[b]
		switch {
		case ja < jb:
			return -1
		case ja > jb:
			return 1
		}
		return 0
	})
}

// validateReportsScratch mirrors validateReports without its per-call
// map: preferences are validated in report order, then duplicate IDs
// are caught by sorting a scratch copy and scanning adjacent entries.
// (On inputs with several independent defects the two validators may
// surface different ones first; both always reject exactly the same
// input set.)
func validateReportsScratch(s *Scratch, reports []core.Report) error {
	if len(reports) == 0 {
		return fmt.Errorf("sched: no reports")
	}
	for _, r := range reports {
		if err := r.Pref.Validate(); err != nil {
			return fmt.Errorf("household %d: %w", r.ID, err)
		}
	}
	s.grow(len(reports))
	for i, r := range reports {
		s.ids[i] = r.ID
	}
	slices.Sort(s.ids)
	for i := 1; i < len(s.ids); i++ {
		if s.ids[i] == s.ids[i-1] {
			return &core.ValidationError{
				Field:  "reports",
				Reason: fmt.Sprintf("duplicate household id %d", s.ids[i]),
			}
		}
	}
	return nil
}

// bestPlacement chooses the deferment minimizing (resulting peak,
// marginal cost, start hour) of an item drawing rating against the
// current partial load. The peak of each candidate window is maintained
// incrementally by a monotonic sliding-window deque (O(window) total
// instead of O(window×duration)), and the marginal cost is only
// evaluated for candidates whose peak ties or beats the incumbent —
// lazily, because a strictly worse peak already loses. Both keys reproduce the seed arithmetic exactly: the
// deque yields the same float peak as the per-slot rescan, and the
// marginal cost is summed slot by slot in the same order.
func (g *Greedy) bestPlacement(pref core.Preference, rating float64, load *core.Load, quad pricing.Quadratic, isQuad bool, deque *[core.HoursPerDay]int) core.Interval {
	b := pref.Window.Begin
	v := pref.Duration
	slack := pref.Slack()

	// Prime the deque with the first window [b, b+v).
	head, tail := 0, 0
	for h := b; h < b+v; h++ {
		for tail > head && load[deque[tail-1]] <= load[h] {
			tail--
		}
		deque[tail] = h
		tail++
	}
	bestD := 0
	bestPeak := load[deque[head]] + rating
	bestCost := marginal(g.Pricer, rating, load, b, b+v, quad, isQuad)
	for d := 1; d <= slack; d++ {
		// Slide to [b+d, b+d+v): expire the left slot, admit the right.
		if deque[head] < b+d {
			head++
		}
		h := b + d + v - 1
		for tail > head && load[deque[tail-1]] <= load[h] {
			tail--
		}
		deque[tail] = h
		tail++

		peak := load[deque[head]] + rating
		if peak > bestPeak {
			continue
		}
		cost := marginal(g.Pricer, rating, load, b+d, b+d+v, quad, isQuad)
		if peak < bestPeak || cost < bestCost-1e-12 {
			bestD, bestPeak, bestCost = d, peak, cost
		}
	}
	return pref.IntervalAt(bestD)
}

// marginal computes the marginal cost of occupying [lo, hi) at rating
// under p: the quadratic fast path runs the exact per-slot expression
// pricing.MarginalCost would (σ(l+r)² − σl², in slot order, so the
// floats are bit-identical) without interface dispatch; every other
// pricer takes the generic path.
func marginal(p pricing.Pricer, rating float64, load *core.Load, lo, hi int, quad pricing.Quadratic, isQuad bool) float64 {
	if isQuad {
		var delta float64
		for h := lo; h < hi; h++ {
			l := load[h]
			lr := l + rating
			delta += quad.Sigma*lr*lr - quad.Sigma*l*l
		}
		return delta
	}
	return pricing.MarginalCost(p, load, core.Interval{Begin: lo, End: hi}, rating)
}
