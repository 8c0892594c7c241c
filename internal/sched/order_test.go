package sched

import (
	"fmt"
	"slices"
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/profile"
)

// orderKeys builds the sort keys Greedy.order builds for prefs, with
// RNG jitter or, with a nil jitter, the position jitter, in position
// order.
func orderKeys(prefs []core.Preference, jitter *dist.RNG) []orderKey {
	s := new(Scratch)
	s.grow(len(prefs))
	copy(s.prefs, prefs)
	(&Greedy{Pricer: quad, Rating: 2, RNG: jitter}).order(s)
	keys := slices.Clone(s.keys)
	slices.SortFunc(keys, func(a, b orderKey) int { return a.pos - b.pos })
	return keys
}

// corpusPrefs is corpusReports' preferences.
func corpusPrefs(seed uint64, n int) []core.Preference {
	prefs := make([]core.Preference, n)
	for i, r := range corpusReports(dist.New(seed), n) {
		prefs[i] = r.Pref
	}
	return prefs
}

// cityPrefs draws n wide preferences from the Section VI profiles, as
// the enkibench city neighbourhoods report them: about 220 distinct
// flexibility values among 781 households, in ties of up to ~60.
func cityPrefs(seed uint64, n int) []core.Preference {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(seed))
	if err != nil {
		panic(err)
	}
	prefs := make([]core.Preference, n)
	for i, p := range gen.DrawN(n) {
		prefs[i] = p.Wide
	}
	return prefs
}

// TestRadixSortMatchesComparisonSort: radixSort orders keys exactly as
// the comparison sort does — by flexibility, jitter, then position —
// over the keys the allocator builds, with and without RNG jitter, and
// over keys built to stress the radix passes: flexibility ties (every
// position breaking them), equal jitter, negative values, and keys that
// share every byte, so that every pass is skipped.
func TestRadixSortMatchesComparisonSort(t *testing.T) {
	check := func(name string, keys []orderKey) {
		t.Helper()
		want := slices.Clone(keys)
		slices.SortFunc(want, compareKeys)
		buf := make([]orderKey, len(keys))
		if got := radixSort(slices.Clone(keys), buf); !slices.Equal(got, want) {
			t.Fatalf("%s: radix order differs from the comparison order", name)
		}
	}
	for _, n := range []int{1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 781, 2000} {
		for name, prefs := range map[string][]core.Preference{"corpus": corpusPrefs(uint64(n), n), "city": cityPrefs(uint64(n), n)} {
			check(fmt.Sprintf("%s n=%d rng", name, n), orderKeys(prefs, dist.New(uint64(n)*31)))
			check(fmt.Sprintf("%s n=%d positions", name, n), orderKeys(prefs, nil))
		}
	}
	rng := dist.New(9)
	values := []float64{-3.5, -1e-300, 0, 1e-310, 0.25, 0.5, 2, 1e300}
	for k := 0; k < 200; k++ {
		n := 1 + rng.Intn(600)
		keys := make([]orderKey, n)
		for i := range keys {
			keys[i] = orderKey{
				flex:   orderBits(values[rng.Intn(len(values))]),
				jitter: orderBits(values[rng.Intn(3+k%len(values))%len(values)]),
				pos:    i,
			}
		}
		check(fmt.Sprintf("ties %d", k), keys)
	}
	same := make([]orderKey, 300)
	for i := range same {
		same[i] = orderKey{flex: orderBits(0.5), jitter: orderBits(0.5), pos: i}
	}
	check("identical", same)
}

// TestRadixOrderAllocatesNothing extends the AllocateInto zero-alloc
// contract (TestGreedyAllocateSteadyStateAllocs, 50 households) past
// radixCutoff, where the radix sort's second buffer lives in Scratch.
func TestRadixOrderAllocatesNothing(t *testing.T) {
	for _, n := range []int{radixCutoff, 781} {
		reports := corpusReports(dist.New(uint64(n)), n)
		g := &Greedy{Pricer: quad, Rating: 2, RNG: dist.New(3)}
		var s Scratch
		dst := make([]core.Assignment, 0, n)
		if _, err := g.AllocateInto(&s, dst, reports); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() {
			if _, err := g.AllocateInto(&s, dst, reports); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("n=%d: AllocateInto with reused buffers: %g allocs/op, want 0", n, got)
		}
	}
}

// TestOrderBitsPreservesOrder: orderBits orders floats as < does.
func TestOrderBitsPreservesOrder(t *testing.T) {
	values := []float64{-1e308, -2, -1, -1e-310, 0, 5e-324, 1e-310, 0.5, 1, 2, 1e308}
	for i := 1; i < len(values); i++ {
		if orderBits(values[i-1]) >= orderBits(values[i]) {
			t.Errorf("orderBits(%g) >= orderBits(%g)", values[i-1], values[i])
		}
	}
}

// BenchmarkOrderSort is the sweep radixCutoff comes from: the two
// sorters over the keys of n city-shaped households (cityPrefs) with
// RNG jitter, each sorting a fresh copy per operation.
func BenchmarkOrderSort(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128, 192, 256, 288, 320, 352, 384, 512, 781, 1024} {
		keys := orderKeys(cityPrefs(uint64(n), n), dist.New(uint64(n)))
		work := make([]orderKey, n)
		buf := make([]orderKey, n)
		b.Run(fmt.Sprintf("n=%d/sort=compare", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, keys)
				slices.SortFunc(work, compareKeys)
			}
		})
		b.Run(fmt.Sprintf("n=%d/sort=radix", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, keys)
				radixSort(work, buf)
			}
		})
	}
}

// BenchmarkFlexibilityScores times Eq. 4 over a city-sized shard.
func BenchmarkFlexibilityScores(b *testing.B) {
	prefs := cityPrefs(781, 781)
	dst := make([]float64, len(prefs))
	for i := 0; i < b.N; i++ {
		mechanism.FlexibilityScoresInto(dst, prefs)
	}
}
