//go:build !race

package netproto

import (
	"runtime"
	"testing"
)

// checkDayBytes is the bytes gate of TestClusterDaySteadyStateAllocs and
// its ledger variant: over days warm days, a day allocates under 16
// bytes per household on average,
// because every shard day settles in its pooled link and settle scratch
// and leaves only per-shard bookkeeping behind. The race build skips it:
// its sync.Pool drops a quarter of Puts by design, so pooled storage
// (the ledger's line buffers) is reallocated at random there.
func checkDayBytes(t *testing.T, households, days int, settle func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range days {
		settle()
	}
	runtime.ReadMemStats(&after)
	perHousehold := float64(after.TotalAlloc-before.TotalAlloc) / float64(days) / float64(households)
	t.Logf("%.1f bytes per household per day", perHousehold)
	if perHousehold >= 16 {
		t.Errorf("ClusterDay allocated %.1f bytes per household, want under 16", perHousehold)
	}
}
