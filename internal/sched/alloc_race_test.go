//go:build race

package sched

import (
	"testing"

	"enki/internal/core"
)

// checkAllocatePoolAllocs is a no-op in the race build, whose sync.Pool
// drops a quarter of Puts by design; see the gate in
// alloc_norace_test.go.
func checkAllocatePoolAllocs(*testing.T, *Greedy, []core.Report) {}
