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

// TestClusterPartitionAllocs is the partition's allocation contract:
// after ascending joins the shards view the membership in place, so a
// repartition allocates per-shard state only, the same bytes at 20,000
// households as at 40,000. The least of three repartitions is compared,
// so an allocation elsewhere in the process cannot fail it.
func TestClusterPartitionAllocs(t *testing.T) {
	partition := func(households int) uint64 {
		cluster := buildCluster(t, households, WithShards(16))
		least := ^uint64(0)
		var before, after runtime.MemStats
		for range 3 {
			cluster.mu.Lock()
			runtime.ReadMemStats(&before)
			cluster.rebuildShards()
			runtime.ReadMemStats(&after)
			cluster.mu.Unlock()
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := partition(20_000), partition(40_000)
	t.Logf("a 16-shard repartition allocates %d B at 20,000 households, %d B at 40,000", small, large)
	if small != large {
		t.Errorf("a repartition allocates %d B at 20,000 households and %d B at 40,000; want the same bytes", small, large)
	}
}
