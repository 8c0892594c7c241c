package netproto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"enki/internal/core"
	"enki/internal/obs"
)

const binaryGoldenPath = "testdata/binary_frames.golden"

// varintBoundaries holds, for each width a zigzag varint can take (one,
// two, three, four and more bytes), the values on both sides of the
// width's edges, negative ones and the int64 extremes included.
var varintBoundaries = []int64{
	0, 1, -1,
	63, 64, -64, -65, // one byte | two
	8191, 8192, -8192, -8193, // two | three
	1<<20 - 1, 1 << 20, -(1 << 20), -(1 << 20) - 1, // three | four
	1<<27 - 1, 1 << 27, -(1 << 27), // four | five
	math.MaxInt32, math.MinInt32,
	math.MaxInt64, math.MinInt64,
}

// goldenFrame is one batch frame of the binary layout corpus.
type goldenFrame struct {
	name string
	msgs []*Message
}

// binaryGoldenCorpus is the fixed corpus testdata/binary_frames.golden
// pins: every kind, every presence bit alone and all together, IDs,
// days, preference and interval fields at each varint width boundary,
// payments holding −0, a subnormal and ±MaxFloat64, a trace context, a
// metrics report, and batches whose message count and message lengths
// take two-byte uvarints.
func binaryGoldenCorpus() []goldenFrame {
	var corpus []goldenFrame
	add := func(name string, msgs ...*Message) { corpus = append(corpus, goldenFrame{name, msgs}) }

	for _, k := range slices.Concat(wireKinds, []Kind{"", "no such kind"}) {
		add("kind/"+strings.ReplaceAll(fmt.Sprintf("%q", k), " ", "_"), &Message{Kind: k, ID: 1, Day: 2})
	}

	trace := &obs.TraceContext{TraceID: "f0117ac2bf13f98a", SpanID: "00000000000000a7"}
	pref := core.Preference{Window: core.Interval{Begin: 16, End: 22}, Duration: 3}
	iv := core.Interval{Begin: 17, End: 20}
	pay := &PaymentDetail{Amount: 12.5, Flexibility: 0.4, Defection: 0.125, SocialCost: 0.375, TotalCost: 980.25, PeakLoad: 14}
	bits := []struct {
		name string
		set  func(m *Message)
	}{
		{"trace", func(m *Message) { m.Trace = trace }},
		{"token", func(m *Message) { m.Token = "tok-123" }},
		{"pref", func(m *Message) { p := pref; m.Pref = &p }},
		{"interval", func(m *Message) { i := iv; m.Interval = &i }},
		{"payment", func(m *Message) { p := *pay; m.Payment = &p }},
		{"err", func(m *Message) { m.Err = "an error" }},
		{"codecs", func(m *Message) { m.Codecs = []string{"binary", "json"} }},
		{"codec", func(m *Message) { m.Codec = "binary" }},
		{"metrics", func(m *Message) { m.Metrics = testReport() }},
	}
	all := &Message{Kind: KindPayment, ID: 100042, Day: 200}
	for _, b := range bits {
		m := &Message{Kind: KindPayment, ID: 100042, Day: 200}
		b.set(m)
		b.set(all)
		add("bit/"+b.name, m)
	}
	add("bit/all", all)

	for _, v := range varintBoundaries {
		add(fmt.Sprintf("id/%d", v), &Message{Kind: KindRequest, ID: core.HouseholdID(v), Day: 3})
		add(fmt.Sprintf("day/%d", v), &Message{Kind: KindRequest, ID: 3, Day: int(v)})
		p := core.Preference{Window: core.Interval{Begin: int(v), End: int(-v)}, Duration: int(v)}
		add(fmt.Sprintf("pref/%d", v), &Message{Kind: KindPreference, ID: 3, Day: 3, Pref: &p})
		i := core.Interval{Begin: int(-v), End: int(v)}
		add(fmt.Sprintf("interval/%d", v), &Message{Kind: KindConsumption, ID: 3, Day: 3, Interval: &i})
	}

	add("payment/specials", &Message{Kind: KindPayment, ID: 3, Day: 3, Payment: &PaymentDetail{
		Amount:      math.Copysign(0, -1),
		Flexibility: math.SmallestNonzeroFloat64,
		Defection:   -math.SmallestNonzeroFloat64,
		SocialCost:  math.MaxFloat64,
		TotalCost:   -math.MaxFloat64,
		PeakLoad:    0x1p-1030, // subnormal
	}})

	// A city-shaped day-cycle batch: IDs past 100,000, a day past 64,
	// and DefaultBatchSize messages of the leg mix.
	var leg []*Message
	for i := 0; i < DefaultBatchSize; i++ {
		id := core.HouseholdID(100_000 + 997*i)
		m := &Message{Kind: wireKinds[2+i%5], ID: id, Day: 200, Trace: trace}
		switch m.Kind {
		case KindPreference:
			p := pref
			m.Pref = &p
		case KindAllocation, KindConsumption:
			i := iv
			m.Interval = &i
		case KindPayment:
			p := *pay
			m.Payment = &p
		}
		leg = append(leg, m)
	}
	add("batch/day-cycle", leg...)

	var requests []*Message
	for i := 0; i < 130; i++ {
		requests = append(requests, &Message{Kind: KindRequest, ID: core.HouseholdID(i), Day: 64})
	}
	add("batch/130-requests", requests...)
	add("batch/metrics-and-request", &Message{Kind: KindMetricsReport, Day: 5, Metrics: testReport()},
		&Message{Kind: KindRequest, ID: 9, Day: 5})
	return corpus
}

// readBinaryGolden parses testdata/binary_frames.golden: one "name hex"
// line per corpus frame.
func readBinaryGolden(t *testing.T) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(binaryGoldenPath)
	if err != nil {
		t.Fatalf("read binary golden: %v", err)
	}
	frames := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, h, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("binary golden: malformed line %q", line)
		}
		if frames[name], err = hex.DecodeString(h); err != nil {
			t.Fatalf("binary golden %s: %v", name, err)
		}
	}
	return frames
}

// TestBinaryFrameGolden pins the binary layout byte for byte:
// AppendBatch must write exactly the committed frames, and decoding the
// committed frames must give the messages the JSON reference codec
// decodes from the same batches. Regenerate with -update-golden only
// for a deliberate wire break.
func TestBinaryFrameGolden(t *testing.T) {
	corpus := binaryGoldenCorpus()
	frames := make([][]byte, len(corpus))
	var out strings.Builder
	for i, tc := range corpus {
		frame, err := AppendBatch(nil, binaryCodec{}, tc.msgs)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		frames[i] = frame
		fmt.Fprintf(&out, "%s %x\n", tc.name, frame)
	}
	if *updateGolden {
		if err := os.WriteFile(binaryGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := readBinaryGolden(t)
	if len(golden) != len(corpus) {
		t.Errorf("golden holds %d frames, the corpus %d", len(golden), len(corpus))
	}
	for i, tc := range corpus {
		want, ok := golden[tc.name]
		if !ok {
			t.Errorf("%s: not in the golden file", tc.name)
			continue
		}
		if !bytes.Equal(frames[i], want) {
			t.Errorf("%s: frame differs from the golden layout:\n got %x\nwant %x", tc.name, frames[i], want)
		}
		decoded, err := DecodeBatch(want[4:])
		if err != nil {
			t.Errorf("%s: decode golden frame: %v", tc.name, err)
			continue
		}
		jsonFrame, err := AppendBatch(nil, jsonCodec{}, tc.msgs)
		if err != nil {
			t.Fatalf("%s: json encode: %v", tc.name, err)
		}
		reference, err := DecodeBatch(jsonFrame[4:])
		if err != nil {
			t.Fatalf("%s: json decode: %v", tc.name, err)
		}
		if !reflect.DeepEqual(decoded, reference) {
			t.Errorf("%s: binary decodes\n %+v\nJSON decodes\n %+v", tc.name, decoded, reference)
		}
	}
}

// overlong writes ux as a uvarint of exactly width bytes: the canonical
// encoding when width is its minimal length, a non-canonical one padded
// with continuation bytes when it is longer. It needs 7·width ≥ the
// bit length of ux.
func overlong(ux uint64, width int) []byte {
	b := make([]byte, width)
	for i := range b {
		b[i] = byte(ux & 0x7f)
		ux >>= 7
		if i < width-1 {
			b[i] |= 0x80
		}
	}
	return b
}

// zigzagOf is the uvarint binary.AppendVarint writes for v.
func zigzagOf(v int64) uint64 {
	ux, _ := binary.Uvarint(binary.AppendVarint(nil, v))
	return ux
}

// varintWidths returns ux written canonically and padded to every longer
// width up to 11 bytes, plus a 10-byte encoding whose last byte
// overflows 64 bits: the encodings binary.Uvarint accepts and two it
// rejects.
func varintWidths(ux uint64) [][]byte {
	var encs [][]byte
	for w := len(binary.AppendUvarint(nil, ux)); w <= 11; w++ {
		encs = append(encs, overlong(ux, w))
	}
	over := overlong(ux, 10)
	over[9] |= 0x02
	return append(encs, over)
}

// TestBinaryVarintsDecodeAsEncodingBinary: every varint of a binary
// message, and a frame's message count and message lengths, decode as
// encoding/binary decodes them. A non-canonical (overlong) encoding
// reads as binary.Varint reads it, an encoding binary.Varint rejects
// fails the message, and a varint cut short fails it too.
func TestBinaryVarintsDecodeAsEncodingBinary(t *testing.T) {
	// A consumption message is code, id, day, mask, interval begin, end;
	// a preference message carries begin, end, duration after its mask.
	type field struct {
		name string
		get  func(m *Message) int64
	}
	layouts := []struct {
		code   byte
		mask   uint64
		fields []field
	}{
		{kindCode(KindConsumption), binInterval, []field{
			{"id", func(m *Message) int64 { return int64(m.ID) }},
			{"day", func(m *Message) int64 { return int64(m.Day) }},
			{"mask", nil},
			{"interval.begin", func(m *Message) int64 { return int64(m.Interval.Begin) }},
			{"interval.end", func(m *Message) int64 { return int64(m.Interval.End) }},
		}},
		{kindCode(KindPreference), binPref, []field{
			{"id", func(m *Message) int64 { return int64(m.ID) }},
			{"day", func(m *Message) int64 { return int64(m.Day) }},
			{"mask", nil},
			{"pref.begin", func(m *Message) int64 { return int64(m.Pref.Window.Begin) }},
			{"pref.end", func(m *Message) int64 { return int64(m.Pref.Window.End) }},
			{"pref.duration", func(m *Message) int64 { return int64(m.Pref.Duration) }},
		}},
	}
	for _, layout := range layouts {
		for pos, f := range layout.fields {
			values := varintBoundaries
			if f.get == nil {
				values = []int64{int64(layout.mask)}
			}
			for _, v := range values {
				ux := zigzagOf(v)
				if f.get == nil {
					ux = uint64(v) // the mask is a plain uvarint
				}
				for _, enc := range varintWidths(ux) {
					msg := []byte{layout.code}
					for other := range layout.fields {
						switch {
						case other == pos:
							msg = append(msg, enc...)
						case layout.fields[other].get == nil:
							msg = binary.AppendUvarint(msg, layout.mask)
						default:
							msg = binary.AppendVarint(msg, 5)
						}
					}
					got, err := binaryCodec{}.Decode(msg, new(slot))
					want, n := binary.Varint(enc)
					if f.get == nil {
						var uw uint64
						uw, n = binary.Uvarint(enc)
						want = int64(uw)
					}
					if n <= 0 {
						if err == nil {
							t.Errorf("%s %d as % x: decoded, but binary.Varint rejects it", f.name, v, enc)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s %d as % x: %v", f.name, v, enc, err)
						continue
					}
					if f.get != nil && f.get(got) != want {
						t.Errorf("%s %d as % x: decoded %d, binary.Varint reads %d", f.name, v, enc, f.get(got), want)
					}
					for cut := 1; cut < len(msg); cut++ {
						if _, err := (binaryCodec{}).Decode(msg[:cut], new(slot)); err == nil {
							t.Fatalf("%s %d as % x: a message cut to %d of %d bytes decoded", f.name, v, enc, cut, len(msg))
						}
					}
				}
			}
		}
	}

	// The frame's message count and each message length are uvarints
	// too: padded ones read as binary.Uvarint reads them.
	req, err := binaryCodec{}.Append(nil, &Message{Kind: KindRequest, ID: 1, Day: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range varintWidths(1) {
		for _, length := range varintWidths(uint64(len(req))) {
			payload := append([]byte{binaryCodec{}.ID()}, count...)
			payload = append(append(payload, length...), req...)
			msgs, err := DecodeBatch(payload)
			_, nc := binary.Uvarint(count)
			_, nl := binary.Uvarint(length)
			if nc <= 0 || nl <= 0 {
				if err == nil {
					t.Errorf("count % x, length % x: decoded, but binary.Uvarint rejects one", count, length)
				}
				continue
			}
			if err != nil || len(msgs) != 1 || msgs[0].ID != 1 || msgs[0].Day != 2 {
				t.Errorf("count % x, length % x: got %v, %v", count, length, msgs, err)
			}
		}
	}
}

// TestBinaryGoldenMessagesRejectTruncation: every strict prefix of
// every message in the golden corpus fails to decode, since the mask
// fixes which fields follow and each field's length is explicit.
func TestBinaryGoldenMessagesRejectTruncation(t *testing.T) {
	for _, tc := range binaryGoldenCorpus() {
		for _, m := range tc.msgs {
			enc, err := binaryCodec{}.Append(nil, m)
			if err != nil {
				t.Fatalf("%s: encode: %v", tc.name, err)
			}
			if _, err := (binaryCodec{}).Decode(enc, new(slot)); err != nil {
				t.Fatalf("%s: decode: %v", tc.name, err)
			}
			for cut := 0; cut < len(enc); cut++ {
				if _, err := (binaryCodec{}).Decode(enc[:cut], new(slot)); err == nil {
					t.Fatalf("%s: message cut to %d of %d bytes decoded", tc.name, cut, len(enc))
				}
			}
		}
	}
}
