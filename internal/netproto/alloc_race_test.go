//go:build race

package netproto

import "testing"

// checkDayBytes is a no-op in the race build, whose sync.Pool drops a
// quarter of Puts by design; see the gate in alloc_norace_test.go.
func checkDayBytes(*testing.T, int, int, func()) {}
