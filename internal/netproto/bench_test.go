package netproto

import (
	"context"
	"io"
	"strconv"
	"strings"
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/obs"
	"enki/internal/profile"
)

// benchBatch builds a representative shard-phase batch: the message mix
// one batch frame actually carries during a day (requests, preferences,
// allocations, consumptions, payments), with city-scale household IDs
// (three-byte varints) on a day past the second month (two bytes), as a
// 100,000-household cluster's links carry them. Like a shard link's
// messages, they carry no trace context.
func benchBatch(n int) []*Message {
	const day = 200
	pref := core.MustPreference(16, 22, 3)
	iv := core.Interval{Begin: 17, End: 20}
	msgs := make([]*Message, 0, n)
	for i := 0; i < n; i++ {
		id := core.HouseholdID(60_000 + 613*i)
		switch i % 5 {
		case 0:
			msgs = append(msgs, &Message{Kind: KindRequest, ID: id, Day: day})
		case 1:
			msgs = append(msgs, &Message{Kind: KindPreference, ID: id, Day: day, Pref: &pref})
		case 2:
			msgs = append(msgs, &Message{Kind: KindAllocation, ID: id, Day: day, Interval: &iv})
		case 3:
			msgs = append(msgs, &Message{Kind: KindConsumption, ID: id, Day: day, Interval: &iv})
		default:
			msgs = append(msgs, &Message{Kind: KindPayment, ID: id, Day: day,
				Payment: &PaymentDetail{Amount: 12.5, Flexibility: 0.4, TotalCost: 980.25}})
		}
	}
	return msgs
}

// BenchmarkBatchEncode measures AppendBatch per codec over a
// DefaultBatchSize batch into a reused buffer, as a shard link encodes;
// wireB/op is the encoded frame size.
func BenchmarkBatchEncode(b *testing.B) {
	msgs := benchBatch(DefaultBatchSize)
	for _, name := range CodecNames() {
		c, _ := LookupCodec(name)
		b.Run("codec="+name, func(b *testing.B) {
			var buf []byte
			var err error
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err = AppendBatch(buf[:0], c, msgs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "wireB/op")
		})
	}
}

// BenchmarkBatchDecode measures the batch-frame decode per codec two
// ways: DecodeBatch, which gives every message a fresh slot (the TCP
// path), and /pooled, decodeFrame into reused slots, as a shard link's
// transfer decodes each frame.
func BenchmarkBatchDecode(b *testing.B) {
	msgs := benchBatch(DefaultBatchSize)
	for _, name := range CodecNames() {
		c, _ := LookupCodec(name)
		frame, err := AppendBatch(nil, c, msgs)
		if err != nil {
			b.Fatal(err)
		}
		payload := frame[4:]
		b.Run("codec="+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeBatch(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("codec="+name+"/pooled", func(b *testing.B) {
			slots := make([]slot, len(msgs))
			slotAt := func(i int) *slot { return &slots[i] }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeFrame(payload, slotAt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterDay settles a full preference→payment day over the
// sharded service. The codec and batch-size axes expose the two wire
// deltas BENCH_net.json is the baseline for: JSON vs binary, and
// batched frames vs frame-per-message (batch=1). frames/op and
// wireB/op come from the obs counters, so they gate the real framing
// behavior rather than an estimate. The /ledger case adds the audit
// ledger's encode and ordered append, into io.Discard, and the
// /ledger+reporting case adds each shard's metrics report on its
// payment batch as well.
func BenchmarkClusterDay(b *testing.B) {
	const households, shards = 2000, 16
	cases := []struct {
		codec     string
		batch     int
		ledger    bool
		reporting bool
	}{
		{CodecJSON, DefaultBatchSize, false, false},
		{CodecBinary, DefaultBatchSize, false, false},
		{CodecBinary, 1, false, false},
		{CodecBinary, DefaultBatchSize, true, false},
		{CodecBinary, DefaultBatchSize, true, true},
	}
	for _, tc := range cases {
		name := "codec=" + tc.codec + "/batch=" + strconv.Itoa(tc.batch)
		opts := []Option{
			WithShards(shards),
			WithCodec(tc.codec),
			WithBatchSize(tc.batch),
			WithShardRecords(false),
		}
		if tc.ledger {
			name += "/ledger"
			opts = append(opts, WithLedger(NewJournal(io.Discard)))
		}
		if tc.reporting {
			name += "+reporting"
			opts = append(opts, WithMetricsReporting(true))
		}
		b.Run(name, func(b *testing.B) {
			cluster, err := StartCluster(context.Background(), opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < households; i++ {
				p := gen.Draw()
				if err := cluster.Join(core.HouseholdID(i), &Truthful{Type: p.TypeWide()}); err != nil {
					b.Fatal(err)
				}
			}

			frames0 := counterFamily(obs.MetricNetFramesTotal)
			bytes0 := counterFamily(obs.MetricNetCodecBytesTotal)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.ClusterDay(context.Background(), i+1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(counterFamily(obs.MetricNetFramesTotal)-frames0)/float64(b.N), "frames/op")
			b.ReportMetric(float64(counterFamily(obs.MetricNetCodecBytesTotal)-bytes0)/float64(b.N), "wireB/op")
		})
	}
}

// counterFamily sums every label combination of one counter name.
func counterFamily(name string) uint64 {
	var total uint64
	for k, v := range obs.Default().Snapshot().Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
