package netproto

import (
	"context"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"enki/internal/obs"
)

// steadyHouseholds is the population of the steady-state cluster days.
const steadyHouseholds = 2000

// TestClusterDaySteadyStateAllocs is the shard day's zero-allocation
// contract: on a warm binary cluster that keeps no records, every
// household's five messages are built, framed, decoded and delivered in
// pooled slots, and its shard's day settles in a pooled settle scratch,
// so a day allocates only per-shard bookkeeping — well under one
// allocation per household, and, outside the race build, under 16 bytes
// (checkDayBytes).
//
// The bytes gate runs at Workers: 1, as its ledger twin's does. One
// warm day does not make every worker run a shard day while the others
// run theirs, so at the default worker count up to Workers−1 link
// scratches could first be grown inside the measured days, about 6 B
// per household each. The count gate runs at the default worker count.
func TestClusterDaySteadyStateAllocs(t *testing.T) {
	checkDayAllocs(t, warmClusterDays(t, 1))
	checkDayBytes(t, steadyHouseholds, 10, warmClusterDays(t, 1, WithWorkers(1)))
}

// TestClusterDayLedgerSteadyStateAllocs extends the contract to the
// audit ledger: a shard day builds its ledger rows in its settle
// scratch and encodes its line into a pooled buffer, and the journal
// copies the line into tail storage it reuses, so a day that writes a
// ledger stays under the same bounds. The first 256 lines fill the
// tail's slots, so the cluster settles that many before measuring.
//
// The bytes gate runs at Workers: 1. With more workers, a line that
// waits on a stalled shard holds a buffer of its own, and the buffers
// of a run longer than one line per worker go to the garbage collector
// once written, as every line's copy used to (see ledgerStream). How
// long such runs get depends on how the host schedules the workers, so
// at the default worker count the count gate alone applies. Filling the
// tail grows the heap by its 10 MB, which brings a collection due inside
// the measured days at random, and collections can take back the pooled
// line buffers (a sync.Pool), so the bytes gate averages 50 days.
func TestClusterDayLedgerSteadyStateAllocs(t *testing.T) {
	warm := journalTailCap/16 + 1
	serial := warmClusterDays(t, warm, WithWorkers(1), WithLedger(NewJournal(io.Discard)))
	checkDayAllocs(t, serial)
	checkDayBytes(t, steadyHouseholds, 50, serial)
	checkDayAllocs(t, warmClusterDays(t, warm, WithLedger(NewJournal(io.Discard))))
}

// warmClusterDays builds a binary 16-shard cluster of steadyHouseholds
// that keeps no records and settles warmDays days on it, warming the
// pools, the shard partition, the metric handles and any ledger tail.
// It returns the function that settles the next day.
func warmClusterDays(t *testing.T, warmDays int, opts ...Option) (settle func()) {
	cluster := buildCluster(t, steadyHouseholds, append([]Option{
		WithShards(16),
		WithCodec(CodecBinary),
		WithShardRecords(false),
	}, opts...)...)
	day := 0
	settle = func() {
		day++
		if _, err := cluster.ClusterDay(context.Background(), day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	for range warmDays {
		settle()
	}
	return settle
}

// checkDayAllocs is the count gate: a warm day makes under one
// allocation per household.
func checkDayAllocs(t *testing.T, settle func()) {
	t.Helper()
	allocs := testing.AllocsPerRun(10, settle)
	t.Logf("%.0f allocations per %d-household day", allocs, steadyHouseholds)
	if perHousehold := allocs / steadyHouseholds; perHousehold >= 1 {
		t.Errorf("ClusterDay made %.0f allocations, %.2f per household; want under 1", allocs, perHousehold)
	}
}

// TestObserveBatchAllocs: wire telemetry resolves its handles once per
// (direction, codec), so counting a frame allocates nothing.
func TestObserveBatchAllocs(t *testing.T) {
	c, _ := LookupCodec(CodecBinary)
	for _, direction := range []string{obs.DirectionSent, obs.DirectionReceived} {
		observeBatch(direction, c, DefaultBatchSize, 1200) // warm the handle cache
		if allocs := testing.AllocsPerRun(100, func() {
			observeBatch(direction, c, DefaultBatchSize, 1200)
		}); allocs != 0 {
			t.Errorf("observeBatch(%s) made %.1f allocations, want 0", direction, allocs)
		}
	}
}

// TestDecodeBatchAllocatesByDecodedMessages: a frame's claimed message
// count is untrusted. A 1 MiB frame claiming a million messages whose
// first message fails to decode must be rejected without sizing any
// storage by the claim.
func TestDecodeBatchAllocatesByDecodedMessages(t *testing.T) {
	c, _ := LookupCodec(CodecBinary)
	payload := []byte{c.ID()}
	payload = binary.AppendUvarint(payload, 1_000_000)
	payload = append(payload, 1, 0xff) // message 0: one byte, an unknown kind code
	payload = append(payload, make([]byte, MaxFrameSize-len(payload))...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msgs, err := DecodeBatch(payload)
	runtime.ReadMemStats(&after)
	if err == nil || msgs != nil {
		t.Fatalf("DecodeBatch accepted the frame: %d messages, err %v", len(msgs), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rejecting the frame allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestDecodeMetricsReportAllocatesByDecodedSeries: every count in a
// binary metrics report is untrusted. A report that claims a million
// counters, gauges, histograms, bounds, buckets or exemplars in a few
// bytes must be rejected without sizing any allocation by the claim.
func TestDecodeMetricsReportAllocatesByDecodedSeries(t *testing.T) {
	c, _ := LookupCodec(CodecBinary)
	head, err := c.Append(nil, &Message{Kind: KindMetricsReport, Metrics: &obs.MetricsReport{Source: "shard/0001"}})
	if err != nil {
		t.Fatal(err)
	}
	head = head[:len(head)-3] // the three nil series maps
	claim := binary.AppendUvarint(nil, 1_000_001)
	hist := []byte{0, 0, 2, 1, 'h'} // no counters or gauges, one histogram "h"
	sum := make([]byte, 8)
	for _, tc := range []struct {
		name   string
		before []byte
	}{
		{"counters", nil},
		{"gauges", []byte{0}},
		{"histograms", []byte{0, 0}},
		{"bounds", hist},
		{"buckets", append(hist, 0)},
		{"exemplars", append(append(append(hist, 0, 0), 0), sum...)},
	} {
		payload := append(append(append(append([]byte{}, head...), tc.before...), claim...), make([]byte, 16)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Decode(payload, new(slot))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a claim of a million in %d bytes decoded", tc.name, len(payload))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<16 {
			t.Errorf("%s: rejecting the report allocated %d bytes, want under 64 KiB", tc.name, alloc)
		}
	}
}
