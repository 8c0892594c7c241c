package sched

import (
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
)

// FuzzGreedyAllocate drives the zero-alloc greedy path with
// fuzz-derived report sets. Raw fuzz bytes decode into households —
// including deliberately invalid windows, durations, and duplicate IDs
// — and the property under test is total robustness: the allocator
// either rejects the input with an error (and the retained seed
// implementation agrees it is invalid) or returns a schedule that
// CheckAssignments admits, produced without panicking and, on the
// AllocateInto path with reused buffers, without allocating.
func FuzzGreedyAllocate(f *testing.F) {
	f.Add([]byte{18, 2, 4, 10, 1, 6}, uint8(0))
	f.Add([]byte{0, 24, 24, 0, 24, 1, 23, 1, 1}, uint8(1))
	f.Add([]byte{255, 255, 255, 255}, uint8(2))
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{20, 30, 2, 20, 30, 2}, uint8(4))

	f.Fuzz(func(t *testing.T, raw []byte, idSeed uint8) {
		// Three bytes per report: begin, width, duration — deliberately
		// unclamped so invalid preferences reach the validator. IDs
		// collide when idSeed selects a small modulus.
		n := len(raw) / 3
		if n > 64 {
			n = 64
		}
		reports := make([]core.Report, 0, n)
		idMod := core.HouseholdID(idSeed)%7 + 1
		for i := 0; i < n; i++ {
			id := core.HouseholdID(i)
			if idSeed%2 == 1 {
				id = id % idMod
			}
			begin := int(raw[3*i]) % 32
			width := int(raw[3*i+1]) % 32
			dur := int(raw[3*i+2]) % 32
			reports = append(reports, core.Report{
				ID:   id,
				Pref: core.Preference{Window: core.Interval{Begin: begin, End: begin + width}, Duration: dur},
			})
		}

		g := &Greedy{Pricer: quad, Rating: 2}
		ref := &refGreedy{Pricer: quad, Rating: 2}
		got, err := g.Allocate(reports)
		if err != nil {
			if _, refErr := ref.Allocate(reports); refErr == nil {
				t.Fatalf("fast allocator rejected input the seed accepts: %v", err)
			}
			return
		}
		if refOut, refErr := ref.Allocate(reports); refErr != nil {
			t.Fatalf("fast allocator accepted input the seed rejects: %v", refErr)
		} else {
			for i := range refOut {
				if got[i] != refOut[i] {
					t.Fatalf("household %d: fast %v != seed %v", i, got[i], refOut[i])
				}
			}
		}
		if err := CheckAssignments(reports, got); err != nil {
			t.Fatalf("schedule not admitted: %v", err)
		}

		// The reused-buffer path must stay allocation-free on any valid
		// input, not just the benchmark corpus.
		var s Scratch
		dst := make([]core.Assignment, 0, len(reports))
		if _, err := g.AllocateInto(&s, dst, reports); err != nil {
			t.Fatalf("AllocateInto after successful Allocate: %v", err)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := g.AllocateInto(&s, dst, reports); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("AllocateInto with reused buffers allocated %g times", allocs)
		}
	})
}

// FuzzGreedyAllocateRNG exercises the random tie-breaking path with a
// fuzzed seed: the fast and seed allocators must consume the RNG stream
// identically, so equal seeds must yield bit-identical schedules. The
// neighbourhood holds n%2000+1 households, so the fuzzer reaches both
// sides of radixCutoff; the seeds sit at the cutoff, one either side,
// at a city-sized shard and at 2,000.
func FuzzGreedyAllocateRNG(f *testing.F) {
	f.Add(uint64(1), uint16(10))
	f.Add(uint64(42), uint16(50))
	for _, n := range []int{radixCutoff - 1, radixCutoff, radixCutoff + 1, 781, 2000} {
		f.Add(uint64(n), uint16(n-1))
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		reports := corpusReports(dist.New(seed), int(n)%2000+1)
		fast := &Greedy{Pricer: quad, Rating: 2, RNG: dist.New(seed)}
		ref := &refGreedy{Pricer: quad, Rating: 2, RNG: dist.New(seed)}
		got, err := fast.Allocate(reports)
		if err != nil {
			t.Fatalf("corpus reports must be valid: %v", err)
		}
		want, err := ref.Allocate(reports)
		if err != nil {
			t.Fatalf("seed allocator: %v", err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("household %d: fast %v != seed %v", i, got[i], want[i])
			}
		}
	})
}
