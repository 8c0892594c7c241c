package netproto

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"unicode/utf8"

	"enki/internal/core"
	"enki/internal/obs"
)

// FuzzReadBatch feeds arbitrary bytes to the frame reader: it must
// never panic and never return messages alongside an error.
func FuzzReadBatch(f *testing.F) {
	var seed bytes.Buffer
	pref := core.MustPreference(18, 22, 2)
	_ = WriteBatch(&seed, jsonCodec{}, []*Message{{Kind: KindPreference, ID: 1, Day: 3, Pref: &pref}})
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	hello := []byte(`{"kind":"hello"}`)
	frame := binary.BigEndian.AppendUint32(nil, uint32(3+len(hello)))
	f.Add(append(append(frame, jsonCodec{}.ID(), 1, byte(len(hello))), hello...))

	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := ReadBatch(bytes.NewReader(data))
		if err != nil && msgs != nil {
			t.Fatal("messages returned alongside an error")
		}
		for _, m := range msgs {
			if m == nil {
				t.Fatal("nil message in a read batch")
			}
		}
	})
}

// FuzzRoundTrip: any message the writer accepts must read back
// identical — written by each codec as a batch frame onto one stream,
// and through each codec's bare Append and Decode.
func FuzzRoundTrip(f *testing.F) {
	f.Add("hello", int64(3), 7, "some error")
	f.Add("payment", int64(0), 0, "")
	f.Fuzz(func(t *testing.T, kind string, id int64, day int, errStr string) {
		if !utf8.ValidString(kind) || !utf8.ValidString(errStr) {
			t.Skip() // JSON normalizes invalid UTF-8 to U+FFFD, so it cannot round-trip
		}
		in := &Message{Kind: Kind(kind), ID: core.HouseholdID(id), Day: day, Err: errStr}
		var stream bytes.Buffer
		for _, c := range codecs {
			if err := WriteBatch(&stream, c, []*Message{in}); err != nil {
				t.Skip() // oversized or unencodable inputs are rejected by contract
			}
		}
		for _, c := range codecs {
			out, err := ReadBatch(&stream)
			if err != nil {
				t.Fatalf("%s wrote but could not read back: %v", c.Name(), err)
			}
			if len(out) != 1 || !reflect.DeepEqual(in, out[0]) {
				t.Fatalf("%s stream round trip mismatch: %+v vs %+v", c.Name(), out, in)
			}
		}
		for _, name := range CodecNames() {
			c, _ := LookupCodec(name)
			enc, err := c.Append(nil, in)
			if err != nil {
				t.Fatalf("%s encode: %v", name, err)
			}
			dec, err := c.Decode(enc, new(slot))
			if err != nil {
				t.Fatalf("%s wrote but could not decode back: %v", name, err)
			}
			if !reflect.DeepEqual(in, dec) {
				t.Fatalf("%s round trip mismatch: %+v vs %+v", name, dec, in)
			}
			requireDirtySlotDecode(t, c, enc, dec)
		}
	})
}

// requireDirtySlotDecode decodes enc again, into a slot that last held a
// message with every optional field set, and requires the result to
// equal the fresh-slot decode: nothing the slot held before may leak
// into the new message.
func requireDirtySlotDecode(t *testing.T, c Codec, enc []byte, fresh *Message) {
	t.Helper()
	full := fullMessage()
	full.Metrics = &obs.MetricsReport{Source: "shard/0001", Snapshot: obs.NewRegistry().Snapshot()}
	fullEnc, err := c.Append(nil, full)
	if err != nil {
		t.Fatalf("%s encode full message: %v", c.Name(), err)
	}
	s := new(slot)
	if _, err := c.Decode(fullEnc, s); err != nil {
		t.Fatalf("%s decode full message: %v", c.Name(), err)
	}
	got, err := c.Decode(enc, s)
	if err != nil {
		t.Fatalf("%s decode into a dirty slot: %v", c.Name(), err)
	}
	if !reflect.DeepEqual(fresh, got) {
		t.Fatalf("%s dirty-slot decode differs from fresh decode:\n fresh %+v\n dirty %+v", c.Name(), fresh, got)
	}
}

// FuzzDecodeBatch feeds arbitrary bytes to the batch-frame decoder
// (codec ID, message count, per-message lengths, codec payloads): it
// must never panic and never return messages alongside an error.
func FuzzDecodeBatch(f *testing.F) {
	pref := core.MustPreference(18, 22, 2)
	for _, name := range []string{CodecJSON, CodecBinary} {
		c, _ := LookupCodec(name)
		frame, err := AppendBatch(nil, c, []*Message{
			{Kind: KindRequest, ID: 1, Day: 2},
			{Kind: KindPreference, ID: 1, Day: 2, Pref: &pref},
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// A small report with one series of each kind keeps the fuzzer's
	// minimization of inputs derived from it short.
	frame, err := AppendBatch(nil, binaryCodec{}, []*Message{{Kind: KindMetricsReport, Day: 2,
		Metrics: &obs.MetricsReport{Source: "s", Snapshot: obs.Snapshot{
			Counters: map[string]uint64{"c": 1},
			Gauges:   map[string]float64{"g": 0.5},
			Histograms: map[string]obs.HistogramSnapshot{"h": {Bounds: []float64{1}, Buckets: []uint64{1, 0},
				Count: 1, Sum: 0.5, Exemplars: []obs.Exemplar{{Value: 0.5, TraceID: "t"}}}},
		}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame[4:])

	f.Fuzz(func(t *testing.T, payload []byte) {
		msgs, err := DecodeBatch(payload)
		if err != nil && msgs != nil {
			t.Fatal("messages returned alongside an error")
		}
		if err == nil {
			for _, m := range msgs {
				if m == nil {
					t.Fatal("nil message in decoded batch")
				}
			}
		}
	})
}

// fuzzReport builds a metrics report from fuzzed values. shape picks,
// two bits per field, a nil (0), empty (1) or populated counters,
// gauges and histograms map and histogram bounds, buckets and
// exemplars; bit 12 leaves the report off the message (nil).
func fuzzReport(shape uint16, source, key string, n uint64, value, sum float64, traceID string) *obs.MetricsReport {
	if shape&(1<<12) != 0 {
		return nil
	}
	pick := func(field int) int { return int(shape>>(2*field)) & 3 }
	rep := &obs.MetricsReport{Source: source}
	snap := &rep.Snapshot
	if p := pick(0); p > 0 {
		snap.Counters = map[string]uint64{}
		if p > 1 {
			snap.Counters[key], snap.Counters[key+"_total"] = n, n/3
		}
	}
	if p := pick(1); p > 0 {
		snap.Gauges = map[string]float64{}
		if p > 1 {
			snap.Gauges[key] = value
		}
	}
	if p := pick(2); p > 0 {
		snap.Histograms = map[string]obs.HistogramSnapshot{}
		if p > 1 {
			h := obs.HistogramSnapshot{Count: n, Sum: sum}
			if p := pick(3); p > 0 {
				h.Bounds = []float64{}
				if p > 1 {
					h.Bounds = append(h.Bounds, value, sum)
				}
			}
			if p := pick(4); p > 0 {
				h.Buckets = []uint64{}
				if p > 1 {
					h.Buckets = append(h.Buckets, n, 0, 1)
				}
			}
			if p := pick(5); p > 0 {
				h.Exemplars = []obs.Exemplar{}
				if p > 1 {
					h.Exemplars = append(h.Exemplars, obs.Exemplar{Bucket: int(n%5) - 1, Value: value, TraceID: traceID})
				}
			}
			snap.Histograms[key] = h
		}
	}
	return rep
}

// FuzzCodecDifferential is the cross-codec oracle: the same message
// encoded by the JSON codec and by the binary codec must decode to the
// same value — any divergence is a bug in one of them. The message is
// assembled from fuzzed fields including the optional structs and a
// metrics report (see fuzzReport).
func FuzzCodecDifferential(f *testing.F) {
	f.Add("preference", int64(1), 2, "tok", int64(18), int64(22), 2, 1.5, true, "trace", "span",
		uint16(1<<12), "", "", uint64(0), 0.0)
	f.Add("payment", int64(0), 0, "", int64(0), int64(0), 0, -3.25, false, "", "",
		uint16(1<<12), "", "", uint64(0), 0.0)
	f.Add("metricsReport", int64(0), 3, "", int64(0), int64(0), 0, 0.75, false, "f0117ac2bf13f98a", "",
		uint16(0b10_10_10_10_10_10), "shard/0003", "enki_x", uint64(12), 40.5)
	f.Add("metricsReport", int64(0), 3, "", int64(0), int64(0), 0, 0.0, false, "", "",
		uint16(0b01_01_01_10_01_01), "", "", uint64(0), 0.0)
	f.Add("metricsReport", int64(0), 3, "", int64(0), int64(0), 0, 0.0, false, "", "",
		uint16(0), "", "", uint64(0), 0.0)
	f.Fuzz(func(t *testing.T, kind string, id int64, day int, token string,
		begin, end int64, duration int, amount float64, withPayment bool, traceID, spanID string,
		shape uint16, source, key string, n uint64, sum float64) {
		if !utf8.ValidString(kind) || !utf8.ValidString(token) ||
			!utf8.ValidString(traceID) || !utf8.ValidString(spanID) ||
			!utf8.ValidString(source) || !utf8.ValidString(key) {
			t.Skip() // JSON cannot round-trip invalid UTF-8; binary can, so skip the comparison
		}
		in := &Message{Kind: Kind(kind), ID: core.HouseholdID(id), Day: day, Token: token}
		if begin != 0 || end != 0 {
			in.Interval = &core.Interval{Begin: core.Hour(begin), End: core.Hour(end)}
		}
		if duration > 0 {
			in.Pref = &core.Preference{
				Window:   core.Interval{Begin: core.Hour(begin), End: core.Hour(end)},
				Duration: duration,
			}
		}
		if withPayment {
			in.Payment = &PaymentDetail{Amount: amount, TotalCost: amount * 2}
		}
		if traceID != "" || spanID != "" {
			in.Trace = &obs.TraceContext{TraceID: traceID, SpanID: spanID}
		}
		in.Metrics = fuzzReport(shape, source, key, n, amount, sum, traceID)

		jsonC, _ := LookupCodec(CodecJSON)
		binC, _ := LookupCodec(CodecBinary)
		je, err := jsonC.Append(nil, in)
		if err != nil {
			t.Skip() // unencodable by contract (e.g. NaN payment in JSON)
		}
		be, err := binC.Append(nil, in)
		if err != nil {
			t.Fatalf("json accepted but binary rejected: %v", err)
		}
		jd, err := jsonC.Decode(je, new(slot))
		if err != nil {
			t.Fatalf("json decode: %v", err)
		}
		bd, err := binC.Decode(be, new(slot))
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		if !reflect.DeepEqual(jd, bd) {
			t.Fatalf("codecs disagree:\n json   %+v\n binary %+v", jd, bd)
		}
		requireDirtySlotDecode(t, jsonC, je, jd)
		requireDirtySlotDecode(t, binC, be, bd)
	})
}
