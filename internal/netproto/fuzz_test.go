package netproto

import (
	"bytes"
	"encoding/binary"
	"math"
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
	for _, v := range varintBoundaries { // every varint width, both signs, the int64 extremes
		f.Add("request", v, int(v), "")
	}
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
// message with every field set (filledMessage), and requires the result
// to equal the fresh-slot decode: nothing the slot held before may leak
// into the new message.
func requireDirtySlotDecode(t *testing.T, c Codec, enc []byte, fresh *Message) {
	t.Helper()
	fullEnc, err := c.Append(nil, filledMessage(t))
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

// fuzzNumbers doles fuzz bytes out as uvarints, a byte at a time where
// they do not form one, and zeros once they run out.
type fuzzNumbers []byte

func (d *fuzzNumbers) next() uint64 {
	if len(*d) == 0 {
		return 0
	}
	v, n := binary.Uvarint(*d)
	if n <= 0 {
		v, n = uint64((*d)[0]), 1
	}
	*d = (*d)[n:]
	return v
}

// fillerInt is the number messageFiller turns into v: it negates an
// odd number it draws.
func fillerInt(v int64) uint64 {
	if v&1 != 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// boundaryFields is FuzzCodecDifferential input for a message whose ID,
// day, preference and interval fields hold ±v, and whose payment holds
// −0, subnormals and ±MaxFloat64: messageFiller's draws in Message
// field order, zero (nil or empty) for every other field.
func boundaryFields(v int64) []byte {
	var b []byte
	for _, u := range []uint64{
		0,                          // kind, replaced by the fuzz argument
		fillerInt(v), fillerInt(v), // id, day
		0, 0, 0, 0, // trace, token, codecs, codec
		1, fillerInt(v), fillerInt(-v), fillerInt(v), // pref
		1, fillerInt(-v), fillerInt(v), // interval
		1, math.Float64bits(math.Copysign(0, -1)), 1, math.Float64bits(0x1p-1030),
		math.Float64bits(math.MaxFloat64), math.Float64bits(-math.MaxFloat64), math.Float64bits(0.5), // payment
	} {
		b = binary.AppendUvarint(b, u)
	}
	return b
}

// FuzzCodecDifferential is the cross-codec oracle: the same message
// encoded by the JSON codec and by the binary codec must decode to the
// same value — any divergence is a bug in one of them. Every field of
// the message but its kind is set by a sparse messageFiller from the
// fuzzed bytes, so each pointer, slice and map is nil, empty or
// populated, nested fields included, and a field one codec drops or
// shapes differently fails here.
func FuzzCodecDifferential(f *testing.F) {
	dense := bytes.Repeat([]byte{3}, 256) // every pointer, slice and map populated
	for _, kind := range []string{"preference", "payment", "metricsReport", "hello", "no such kind"} {
		f.Add(kind, dense)
	}
	f.Add("hello", []byte{})                 // every field nil or zero
	f.Add("hello", []byte{0, 0, 0, 0, 0, 1}) // an empty codec offer: the sixth field
	f.Add("metricsReport", bytes.Repeat([]byte{1, 3, 2}, 40))
	for _, v := range varintBoundaries {
		f.Add("preference", boundaryFields(v))
	}
	f.Fuzz(func(t *testing.T, kind string, fields []byte) {
		if !utf8.ValidString(kind) {
			t.Skip() // JSON cannot round-trip invalid UTF-8; binary can, so skip the comparison
		}
		in := new(Message)
		numbers := fuzzNumbers(fields)
		filler := messageFiller{next: numbers.next, sparse: true}
		filler.fill(t, reflect.ValueOf(in).Elem())
		in.Kind = Kind(kind)

		jsonC, _ := LookupCodec(CodecJSON)
		binC, _ := LookupCodec(CodecBinary)
		je, err := jsonC.Append(nil, in)
		if err != nil {
			t.Skip() // unencodable by contract (e.g. a NaN payment in JSON)
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
