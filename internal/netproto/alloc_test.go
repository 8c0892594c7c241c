package netproto

import (
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"enki/internal/obs"
)

// TestClusterDaySteadyStateAllocs is the shard day's zero-allocation
// contract: on a warm binary cluster that keeps no records, every
// household's five messages are built, framed, decoded and delivered in
// pooled slots, and its shard's day settles in a pooled settle scratch,
// so a day allocates only per-shard bookkeeping — well under one
// allocation per household, and, outside the race build, under 16 bytes
// (checkDayBytes).
func TestClusterDaySteadyStateAllocs(t *testing.T) {
	const households, shards = 2000, 16
	cluster := buildCluster(t, households,
		WithShards(shards),
		WithCodec(CodecBinary),
		WithShardRecords(false),
	)
	ctx := context.Background()
	day := 0
	settle := func() {
		day++
		if _, err := cluster.ClusterDay(ctx, day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	settle() // warm the pools, the shard partition and the metric handles
	allocs := testing.AllocsPerRun(10, settle)
	t.Logf("%.0f allocations per %d-household day", allocs, households)
	if perHousehold := allocs / households; perHousehold >= 1 {
		t.Errorf("ClusterDay made %.0f allocations, %.2f per household; want under 1", allocs, perHousehold)
	}
	checkDayBytes(t, households, settle)
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
