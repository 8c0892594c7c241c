//go:build !race

package sched

import (
	"testing"

	"enki/internal/core"
)

// checkAllocatePoolAllocs is TestGreedyAllocateSteadyStateAllocs' gate on
// Allocate, whose scratch comes from a sync.Pool: a warm call makes at
// most two allocations. The race build skips it: its sync.Pool drops a
// quarter of Puts by design, so the pooled scratch is reallocated at
// random there.
func checkAllocatePoolAllocs(t *testing.T, g *Greedy, reports []core.Report) {
	t.Helper()
	if got := testing.AllocsPerRun(100, func() {
		if _, err := g.Allocate(reports); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("Allocate: %g allocs/op, want <= 2", got)
	}
}
