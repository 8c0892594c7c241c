package sched

import (
	"cmp"
	"fmt"
	"math"
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
//
// The (flex, jitter) key is a strict total order (jitter entries are
// distinct), so any sort yields the permutation the seed's sort.Slice
// did; the position is a last key that makes the order total even
// then. A neighbourhood of radixCutoff households or more is sorted by
// radixSort, a smaller one by a comparison sort, which is the faster
// of the two there.
func (g *Greedy) order(s *Scratch) {
	mechanism.FlexibilityScoresInto(s.flex, s.prefs)
	for i, f := range s.flex {
		j := float64(i) // deterministic fallback: input order
		if g.RNG != nil {
			j = g.RNG.Float64()
		}
		s.keys[i] = orderKey{flex: orderBits(f), jitter: orderBits(j), pos: i}
	}
	keys := s.keys
	if len(keys) >= radixCutoff {
		keys = radixSort(keys, s.keyBuf)
	} else {
		slices.SortFunc(keys, compareKeys)
	}
	for i, k := range keys {
		s.order[i] = k.pos
	}
}

// radixCutoff is the neighbourhood size from which the order uses
// radixSort. On city-shaped keys (BenchmarkOrderSort, 2-vCPU host) the
// comparison sort is the faster one up to 256 households, radixSort
// from 512, and between them the two are within run-to-run noise of
// each other; 384 sits in that band (see DESIGN.md, "The allocator hot
// path").
const radixCutoff = 384

// orderKey is one household's sort key: its Eq. 4 flexibility and its
// tie-break jitter as order-preserving bit patterns, and its input
// position.
type orderKey struct {
	flex, jitter uint64
	pos          int
}

// orderBits maps f to a uint64 whose unsigned order is f's order: the
// IEEE-754 bits with the sign bit set for a non-negative f, every bit
// flipped for a negative one. It is exact for every f but NaN (and −0
// sorts below +0); Eq. 4 and the jitter take neither.
func orderBits(f float64) uint64 {
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// compareKeys orders keys by flexibility, then jitter, then position.
func compareKeys(a, b orderKey) int {
	if c := cmp.Compare(a.flex, b.flex); c != 0 {
		return c
	}
	if c := cmp.Compare(a.jitter, b.jitter); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

// radixSort sorts keys as compareKeys orders them, in linear time: a
// stable LSD radix sort over the sixteen bytes of (flex, jitter), least
// significant first, that skips a byte every key shares. keys must be
// in position order, which stability keeps among equal (flex, jitter).
// buf, as long as keys, is the second buffer; the sorted keys end in
// one of the two, which radixSort returns.
func radixSort(keys, buf []orderKey) []orderKey {
	if len(keys) < 2 {
		return keys
	}
	var counts [16][256]int32 // digit d: byte d of jitter, then byte d-8 of flex
	for _, k := range keys {
		j, f := k.jitter, k.flex
		counts[0][byte(j)]++
		counts[1][byte(j>>8)]++
		counts[2][byte(j>>16)]++
		counts[3][byte(j>>24)]++
		counts[4][byte(j>>32)]++
		counts[5][byte(j>>40)]++
		counts[6][byte(j>>48)]++
		counts[7][byte(j>>56)]++
		counts[8][byte(f)]++
		counts[9][byte(f>>8)]++
		counts[10][byte(f>>16)]++
		counts[11][byte(f>>24)]++
		counts[12][byte(f>>32)]++
		counts[13][byte(f>>40)]++
		counts[14][byte(f>>48)]++
		counts[15][byte(f>>56)]++
	}
	src, dst := keys, buf[:len(keys)]
	for d := range counts {
		shift := 8 * (d % 8)
		c := &counts[d]
		first := src[0].jitter
		if d >= 8 {
			first = src[0].flex
		}
		if int(c[byte(first>>shift)]) == len(src) {
			continue // every key shares this byte
		}
		var next int32 // exclusive prefix sums: each byte's first slot
		for i, n := range c {
			c[i], next = next, next+n
		}
		if d < 8 {
			for _, k := range src {
				slot := &c[byte(k.jitter>>shift)]
				dst[*slot] = k
				*slot++
			}
		} else {
			for _, k := range src {
				slot := &c[byte(k.flex>>shift)]
				dst[*slot] = k
				*slot++
			}
		}
		src, dst = dst, src
	}
	return src
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
