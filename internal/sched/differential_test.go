package sched

import (
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/pricing"
)

// corpusReports draws one random instance for the differential suite:
// n households with random windows, durations, and therefore slack —
// from fully rigid (duration == window) to fully flexible (whole-day
// windows), the axes ISSUE 6 calls out.
func corpusReports(rng *dist.RNG, n int) []core.Report {
	reports := make([]core.Report, n)
	for i := range reports {
		begin := rng.Intn(core.HoursPerDay)
		width := 1 + rng.Intn(core.HoursPerDay-begin)
		dur := 1 + rng.Intn(width)
		reports[i] = core.Report{
			ID:   core.HouseholdID(i),
			Pref: core.Preference{Window: core.Interval{Begin: begin, End: begin + width}, Duration: dur},
		}
	}
	return reports
}

// TestDifferentialGreedy replays the fast allocator and the retained
// seed implementation over ~1k seeded random instances and requires
// bit-identical schedules: same intervals for every household, in every
// instance, under both quadratic and piecewise pricing and with and
// without RNG tie-breaking.
func TestDifferentialGreedy(t *testing.T) {
	piecewise, err := pricing.NewPiecewise([]pricing.Step{{Threshold: 0, Rate: 0.5}, {Threshold: 8, Rate: 3}})
	if err != nil {
		t.Fatal(err)
	}
	pricers := []struct {
		name string
		p    pricing.Pricer
	}{
		{"quadratic", quad},
		{"piecewise", piecewise},
	}
	const instances = 1000
	for _, pr := range pricers {
		t.Run(pr.name, func(t *testing.T) {
			for k := 0; k < instances; k++ {
				seed := uint64(k + 1)
				rng := dist.New(seed)
				n := 1 + rng.Intn(60)
				reports := corpusReports(rng, n)
				useRNG := k%2 == 1

				var fastRNG, refRNG *dist.RNG
				if useRNG {
					fastRNG = dist.New(seed * 7919)
					refRNG = dist.New(seed * 7919)
				}
				fast := &Greedy{Pricer: pr.p, Rating: 2, RNG: fastRNG}
				ref := &refGreedy{Pricer: pr.p, Rating: 2, RNG: refRNG}

				got, err := fast.Allocate(reports)
				if err != nil {
					t.Fatalf("instance %d: fast: %v", k, err)
				}
				want, err := ref.Allocate(reports)
				if err != nil {
					t.Fatalf("instance %d: reference: %v", k, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("instance %d (n=%d, rng=%v): household %d: fast %v != seed %v",
							k, n, useRNG, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestDifferentialGreedyLargeNeighbourhoods carries the differential
// past TestDifferentialGreedy's 60 households, to where the order
// switches sorts: neighbourhoods exactly at radixCutoff and one either
// side, a city-sized shard, and random sizes up to 2,000, under both
// pricers, with RNG tie-breaking and with the nil-RNG position jitter.
func TestDifferentialGreedyLargeNeighbourhoods(t *testing.T) {
	piecewise, err := pricing.NewPiecewise([]pricing.Step{{Threshold: 0, Rate: 0.5}, {Threshold: 8, Rate: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{radixCutoff - 1, radixCutoff, radixCutoff + 1, 781, 2000}
	rng := dist.New(26)
	for len(sizes) < 16 {
		sizes = append(sizes, 61+rng.Intn(2000-60))
	}
	for k, n := range sizes {
		for _, p := range []pricing.Pricer{quad, piecewise} {
			for _, useRNG := range []bool{false, true} {
				seed := uint64(1000 + k)
				reports := corpusReports(dist.New(seed), n)
				var fastRNG, refRNG *dist.RNG
				if useRNG {
					fastRNG, refRNG = dist.New(seed*7919), dist.New(seed*7919)
				}
				got, err := (&Greedy{Pricer: p, Rating: 2, RNG: fastRNG}).Allocate(reports)
				if err != nil {
					t.Fatalf("n=%d: fast: %v", n, err)
				}
				want, err := (&refGreedy{Pricer: p, Rating: 2, RNG: refRNG}).Allocate(reports)
				if err != nil {
					t.Fatalf("n=%d: reference: %v", n, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d (%T, rng=%v): household %d: fast %v != seed %v", n, p, useRNG, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDifferentialGreedyRejectsSameInputs checks the validators agree
// on what is invalid: empty input, duplicate IDs, and malformed
// preferences are rejected by both implementations.
func TestDifferentialGreedyRejectsSameInputs(t *testing.T) {
	fast := &Greedy{Pricer: quad, Rating: 2}
	ref := &refGreedy{Pricer: quad, Rating: 2}
	cases := map[string][]core.Report{
		"empty": nil,
		"duplicate ids": {
			{ID: 3, Pref: core.MustPreference(18, 20, 1)},
			{ID: 3, Pref: core.MustPreference(10, 14, 2)},
		},
		"duration exceeds window": {
			{ID: 0, Pref: core.Preference{Window: core.Interval{Begin: 18, End: 20}, Duration: 5}},
		},
		"zero duration": {
			{ID: 0, Pref: core.Preference{Window: core.Interval{Begin: 18, End: 20}, Duration: 0}},
		},
		"window outside day": {
			{ID: 0, Pref: core.Preference{Window: core.Interval{Begin: 20, End: 30}, Duration: 2}},
		},
	}
	for name, reports := range cases {
		if _, err := fast.Allocate(reports); err == nil {
			t.Errorf("%s: fast allocator accepted invalid input", name)
		}
		if _, err := ref.Allocate(reports); err == nil {
			t.Errorf("%s: reference allocator accepted invalid input", name)
		}
	}
}

// TestGreedyAllocateSteadyStateAllocs pins the hot path's allocation
// budget: Allocate performs exactly one allocation in steady state (the
// returned slice; checkAllocatePoolAllocs, outside the race build), and
// AllocateInto with a reused Scratch and output buffer performs none.
func TestGreedyAllocateSteadyStateAllocs(t *testing.T) {
	reports := corpusReports(dist.New(42), 50)
	g := &Greedy{Pricer: quad, Rating: 2}
	// Warm up: first call grows pool buffers and registers metrics.
	if _, err := g.Allocate(reports); err != nil {
		t.Fatal(err)
	}
	checkAllocatePoolAllocs(t, g, reports)

	var s Scratch
	dst := make([]core.Assignment, 0, len(reports))
	if _, err := g.AllocateInto(&s, dst, reports); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := g.AllocateInto(&s, dst, reports); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("AllocateInto with reused buffers: %g allocs/op, want 0", got)
	}
}

// TestAllocateIntoReusesDst confirms the fast path writes into the
// caller's buffer when it has capacity and falls back to a fresh slice
// when it does not.
func TestAllocateIntoReusesDst(t *testing.T) {
	reports := corpusReports(dist.New(7), 10)
	g := &Greedy{Pricer: quad, Rating: 2}
	dst := make([]core.Assignment, 0, 10)
	out, err := g.AllocateInto(nil, dst, reports)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[:1][0] {
		t.Error("AllocateInto did not reuse the caller's buffer")
	}
	small := make([]core.Assignment, 0, 2)
	out, err = g.AllocateInto(nil, small, reports)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(reports) {
		t.Fatalf("AllocateInto returned %d assignments, want %d", len(out), len(reports))
	}
}
