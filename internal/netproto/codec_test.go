package netproto

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/obs"
	"enki/internal/sched"
)

// fullMessage exercises every Message field at once.
func fullMessage() *Message {
	pref := core.MustPreference(18, 22, 2)
	iv := core.Interval{Begin: 19, End: 21}
	return &Message{
		Kind:     KindPayment,
		ID:       42,
		Day:      7,
		Trace:    &obs.TraceContext{TraceID: "deadbeef", SpanID: "cafe"},
		Token:    "tok-123",
		Codecs:   []string{"binary", "json"},
		Codec:    "binary",
		Pref:     &pref,
		Interval: &iv,
		Payment: &PaymentDetail{
			Amount:      -1.25,
			Flexibility: 0.5,
			Defection:   0.125,
			SocialCost:  0.375,
			TotalCost:   100.5,
			PeakLoad:    12,
		},
		Err: "an error",
	}
}

// messageFiller sets every exported field under a Message, nested
// fields included, as TestLedgerEntryAppendJSON's fill does for a
// ledger entry: a pointer gets a value, a slice or map two entries, a
// number or string a value drawn from next. With sparse set, next also
// decides for each pointer, slice and map whether it stays nil, is
// empty, or holds one or two entries, a float takes any bit pattern,
// and a string any valid UTF-8, so FuzzCodecDifferential reaches every
// presence combination and value. A field of a kind it has no rule for
// fails the test, so a new Message field is covered from the day it is
// added.
type messageFiller struct {
	next   func() uint64
	sparse bool
}

// filledMessage returns a Message whose every field is set, to values
// that differ from field to field. Its Kind is outside wireKinds.
func filledMessage(t testing.TB) *Message {
	var n uint64
	m := new(Message)
	f := messageFiller{next: func() uint64 { n++; return n }}
	f.fill(t, reflect.ValueOf(m).Elem())
	return m
}

// entries is how many entries the next pointer, slice or map gets: two,
// or when sparse -1 (nil), 0, 1 or 2.
func (f *messageFiller) entries() int {
	if !f.sparse {
		return 2
	}
	return int(f.next()%4) - 1
}

func (f *messageFiller) fill(t testing.TB, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if f.entries() < 0 {
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(t, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if field := v.Field(i); field.CanSet() {
				f.fill(t, field)
			}
		}
	case reflect.Slice:
		n := f.entries()
		if n < 0 {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			f.fill(t, v.Index(i))
		}
	case reflect.Map:
		n := f.entries()
		if n < 0 {
			return
		}
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < n; i++ {
			key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(t, key)
			f.fill(t, elem)
			v.SetMapIndex(key, elem)
		}
	case reflect.Int, reflect.Int64:
		x := int64(f.next())
		if x&1 != 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(f.next())
	case reflect.Float64:
		if f.sparse {
			v.SetFloat(math.Float64frombits(f.next())) // JSON refuses NaN and ±Inf
		} else {
			v.SetFloat(float64(int64(f.next())) / 8)
		}
	case reflect.String: // valid UTF-8 only, which JSON round-trips
		if !f.sparse {
			v.SetString(fmt.Sprintf("s%d <&>\"\\ \u2028é", f.next())) // characters JSON escapes
			break
		}
		var b strings.Builder
		for n := f.next() % 8; n > 0; n-- {
			b.WriteRune(rune(f.next())) // an invalid code point writes U+FFFD
		}
		v.SetString(b.String())
	default:
		t.Fatalf("messageFiller: no rule for a %s field; teach it, and both codecs, about it", v.Type())
	}
}

// testReport is a metrics report with every series kind: counters,
// gauges, and histograms with and without exemplars, one of them with
// empty (non-nil) bounds.
func testReport() *obs.MetricsReport {
	rep := &obs.MetricsReport{Source: "shard/0003", Snapshot: obs.Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]float64{"enki_theorem1": -0.25, "enki_big": 1e21},
		Histograms: map[string]obs.HistogramSnapshot{
			"enki_settle_ms": {Bounds: []float64{1, 5, 25}, Buckets: []uint64{3, 0, 2, 1}, Count: 6, Sum: 40.5,
				Exemplars: []obs.Exemplar{{Bucket: 3, Value: 31.5, TraceID: "f0117ac2bf13f98a"}}},
			"enki_empty_ms": {Bounds: []float64{}, Buckets: []uint64{0}},
		},
	}}
	for i := 0; i < 8; i++ {
		rep.Snapshot.Counters[fmt.Sprintf(`enki_c%d_total{shard="%d"}`, i, i)] = uint64(i) << (8 * i)
	}
	return rep
}

// TestCodecRoundTrip: every registered codec must reproduce a
// fully-populated message exactly, and each protocol kind must survive
// with its sparse field set.
func TestCodecRoundTrip(t *testing.T) {
	kinds := []*Message{
		{Kind: KindHello, ID: 1, Codecs: []string{"json"}},
		{Kind: KindWelcome, ID: 1, Token: "t", Codec: "json"},
		{Kind: KindRequest, ID: 2, Day: 1},
		{Kind: KindError, Err: "boom"},
		{Kind: KindMetricsReport, Day: 3, Metrics: testReport()},
		fullMessage(),
	}
	// A message with every field set fails here when a codec drops a
	// field. It rides under a kind outside wireKinds and under each one.
	for _, kind := range append([]Kind{""}, wireKinds...) {
		m := filledMessage(t)
		if kind != "" {
			m.Kind = kind
		}
		kinds = append(kinds, m)
	}
	for _, name := range CodecNames() {
		c, ok := LookupCodec(name)
		if !ok {
			t.Fatalf("registered codec %q not found", name)
		}
		for _, in := range kinds {
			enc, err := c.Append(nil, in)
			if err != nil {
				t.Fatalf("%s encode %s: %v", name, in.Kind, err)
			}
			out, err := c.Decode(enc, new(slot))
			if err != nil {
				t.Fatalf("%s decode %s: %v", name, in.Kind, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Errorf("%s %s round trip:\n in  %+v\n out %+v", name, in.Kind, in, out)
			}
		}
	}
}

// TestCodecsDecodeEmptyOfferAsNil: JSON omits an empty codec offer, so
// the binary codec must not carry one either: both decode it as nil.
func TestCodecsDecodeEmptyOfferAsNil(t *testing.T) {
	for _, c := range codecs {
		enc, err := c.Append(nil, &Message{Kind: KindHello, ID: 1, Codecs: []string{}})
		if err != nil {
			t.Fatalf("%s encode: %v", c.Name(), err)
		}
		out, err := c.Decode(enc, new(slot))
		if err != nil {
			t.Fatalf("%s decode: %v", c.Name(), err)
		}
		if out.Codecs != nil {
			t.Errorf("%s decoded an empty offer as %#v, want nil", c.Name(), out.Codecs)
		}
	}
}

// TestKindCodeMatchesWireKinds pins the binary codec's kind switch to
// the wireKinds table: each kind's code is its index+1, and a kind
// outside the table codes 0.
func TestKindCodeMatchesWireKinds(t *testing.T) {
	for i, k := range wireKinds {
		if got := kindCode(k); got != byte(i+1) {
			t.Errorf("kindCode(%s) = %d, want %d", k, got, i+1)
		}
	}
	for _, k := range []Kind{"", "Payment", "payment ", "metricsreport"} {
		if got := kindCode(k); got != 0 {
			t.Errorf("kindCode(%q) = %d, want 0", k, got)
		}
	}
}

// TestBinaryMetricsReportDeterministic: the binary codec writes a
// report's series in sorted-key order, so the same report, built from
// fresh maps each time (whose iteration order is random), encodes to the
// same bytes, and decodes to what the JSON codec decodes.
func TestBinaryMetricsReportDeterministic(t *testing.T) {
	encode := func(name string) []byte {
		c, _ := LookupCodec(name)
		enc, err := c.Append(nil, &Message{Kind: KindMetricsReport, Day: 3, Metrics: testReport()})
		if err != nil {
			t.Fatalf("%s encode: %v", name, err)
		}
		return enc
	}
	want := encode(CodecBinary)
	for i := 0; i < 20; i++ {
		if got := encode(CodecBinary); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs:\n got %x\nwant %x", i, got, want)
		}
	}
	jd, err := jsonCodec{}.Decode(encode(CodecJSON), new(slot))
	if err != nil {
		t.Fatal(err)
	}
	bd, err := binaryCodec{}.Decode(want, new(slot))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jd, bd) {
		t.Errorf("codecs disagree:\n json   %+v\n binary %+v", jd.Metrics, bd.Metrics)
	}
}

// TestBinaryCodecSmallerThanJSON pins the point of the binary codec: a
// typical day-cycle batch must take meaningfully fewer bytes than the
// same batch in JSON.
func TestBinaryCodecSmallerThanJSON(t *testing.T) {
	msgs := make([]*Message, 64)
	for i := range msgs {
		pref := core.MustPreference(18, 22, 2)
		msgs[i] = &Message{Kind: KindPreference, ID: core.HouseholdID(i), Day: 3, Pref: &pref}
	}
	jsonCodec, _ := LookupCodec(CodecJSON)
	binCodec, _ := LookupCodec(CodecBinary)
	jf, err := AppendBatch(nil, jsonCodec, msgs)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := AppendBatch(nil, binCodec, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf) >= len(jf)/2 {
		t.Errorf("binary batch %dB not under half of JSON batch %dB", len(bf), len(jf))
	}
}

// TestBatchRoundTripBothCodecs drives frames through the byte-level
// write/read path (headers, counts, per-message lengths) for each codec:
// multi-message batches, then one frame per protocol message — the TCP
// path's framing — and odd but legal field combinations, all written
// back to back on one stream.
func TestBatchRoundTripBothCodecs(t *testing.T) {
	pref := core.MustPreference(17, 23, 3)
	batches := [][]*Message{
		{{Kind: KindRequest, ID: 1, Day: 1}},
		{
			{Kind: KindRequest, ID: 1, Day: 1},
			{Kind: KindPreference, ID: 2, Day: 1, Pref: &pref},
			fullMessage(),
		},
	}
	wirePref := core.MustPreference(18, 22, 2)
	iv := core.Interval{Begin: 19, End: 21}
	for _, m := range []*Message{
		{Kind: KindHello, ID: 3},
		{Kind: KindRequest, ID: 3, Day: 7},
		{Kind: KindPreference, ID: 3, Day: 7, Pref: &wirePref},
		{Kind: KindAllocation, ID: 3, Day: 7, Interval: &iv},
		{Kind: KindPayment, ID: 3, Day: 7, Payment: &PaymentDetail{Amount: 4.2, TotalCost: 21}},
		{Kind: KindError, Err: "boom"},
	} {
		batches = append(batches, []*Message{m})
	}
	for i := 0; i < 50; i++ {
		batches = append(batches, []*Message{{
			Kind: Kind(fmt.Sprintf("kind-%d", i)),
			ID:   core.HouseholdID(i * 7),
			Day:  i,
			Err:  fmt.Sprintf("err-%d", i),
		}})
	}
	for _, name := range CodecNames() {
		c, _ := LookupCodec(name)
		var buf bytes.Buffer
		for _, in := range batches {
			if err := WriteBatch(&buf, c, in); err != nil {
				t.Fatalf("%s write: %v", name, err)
			}
		}
		for i, in := range batches {
			out, err := ReadBatch(&buf)
			if err != nil {
				t.Fatalf("%s read frame %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Errorf("%s frame %d round trip mismatch (%d msgs):\n in  %+v\n out %+v", name, i, len(in), in, out)
			}
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes left on the stream", name, buf.Len())
		}
	}
}

// TestDecodeBatchRejectsCorruption: truncations and bit flips must fail
// loudly, never panic or return phantom messages.
func TestDecodeBatchRejectsCorruption(t *testing.T) {
	c, _ := LookupCodec(CodecBinary)
	frame, err := AppendBatch(nil, c, []*Message{fullMessage(), fullMessage(),
		{Kind: KindMetricsReport, Metrics: testReport()}})
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:]
	if _, err := DecodeBatch(payload); err != nil {
		t.Fatalf("pristine payload rejected: %v", err)
	}
	if _, err := DecodeBatch(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := DecodeBatch([]byte{99, 1, 1, 0}); err == nil {
		t.Error("unknown codec id accepted")
	}
	for cut := 1; cut < len(payload); cut += 7 {
		if _, err := DecodeBatch(payload[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestSelectCodec covers the selection rule: the center's configured
// codec (an empty name meaning JSON) when the hello offers it, and JSON
// — the codec the hello arrived in — otherwise.
func TestSelectCodec(t *testing.T) {
	cases := []struct {
		preferred string
		offered   []string
		want      string
	}{
		{"", nil, CodecJSON},
		{CodecBinary, nil, CodecJSON},
		{"", []string{"json"}, CodecJSON},
		{"", []string{"binary", "json"}, CodecJSON},
		{CodecBinary, []string{"json", "binary"}, CodecBinary},
		{CodecBinary, []string{"json"}, CodecJSON},
		{CodecBinary, []string{"snappy"}, CodecJSON},
		{CodecJSON, []string{"binary"}, CodecJSON},
	}
	for _, tc := range cases {
		preferred := centerConfig{Codec: tc.preferred}.codec()
		if got := selectCodec(preferred, tc.offered).Name(); got != tc.want {
			t.Errorf("selectCodec(%q, %v) = %q, want %q", tc.preferred, tc.offered, got, tc.want)
		}
	}
}

// legacyFrame hand-builds m in the deleted one-JSON-message-per-frame
// framing: a u32 length, then the bare JSON.
func legacyFrame(t *testing.T, m *Message) []byte {
	t.Helper()
	payload, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestNegotiationLegacyAgentAgainstNewCenter: an agent that predates
// batch frames sends its hello as a bare JSON frame, which is a
// malformed batch frame. The center closes that connection without
// registering the household, and a real agent still registers under
// the same ID and settles a day.
func TestNegotiationLegacyAgentAgainstNewCenter(t *testing.T) {
	c := newTestCenter(t, WithCodec(CodecBinary))
	conn := rawDial(t, c.Addr())
	if _, err := conn.Write(legacyFrame(t, &Message{Kind: KindHello, ID: 5})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := conn.Recv()
	var netErr net.Error
	switch {
	case err == nil:
		t.Fatalf("legacy hello answered with %s; want the connection closed", m.Kind)
	case errors.As(err, &netErr) && netErr.Timeout():
		t.Fatal("center left the legacy connection open")
	}
	if n := c.AgentCount(); n != 0 {
		t.Fatalf("agent count %d after a legacy hello, want 0", n)
	}

	ctx := context.Background()
	typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
	a, err := Connect(ctx, c.Addr(), 5, &Truthful{Type: typ})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := c.WaitForAgentsContext(ctx, 1); err != nil {
		t.Fatal(err)
	}
	record, err := c.RunDayContext(ctx, 1)
	if err != nil {
		t.Fatalf("day after a legacy hello: %v", err)
	}
	if len(record.Payments) != 1 || record.Substituted != nil || record.Absent != nil {
		t.Fatalf("day after a legacy hello degraded: %+v", record)
	}
}

// TestNegotiationNewAgentAgainstLegacyCenter: a center that predates
// batch frames answers either with a welcome that names no codec or in
// the bare JSON framing. Either way NewAgent refuses the registration.
func TestNegotiationNewAgentAgainstLegacyCenter(t *testing.T) {
	var codecless bytes.Buffer
	if err := WriteBatch(&codecless, jsonCodec{}, []*Message{{Kind: KindWelcome, ID: 3, Token: "tok"}}); err != nil {
		t.Fatal(err)
	}
	for name, welcome := range map[string][]byte{
		"codec-less welcome":    codecless.Bytes(),
		"legacy-framed welcome": legacyFrame(t, &Message{Kind: KindWelcome, ID: 3, Token: "tok", Codec: CodecJSON}),
	} {
		t.Run(name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			answered := make(chan error, 1)
			go func() {
				c := RawConn{server}
				hello, err := c.Recv()
				switch {
				case err != nil:
				case len(hello.Codecs) == 0:
					err = errors.New("agent offered no codecs")
				default:
					_, err = c.Write(welcome)
				}
				answered <- err
			}()

			typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
			agent, err := NewAgent(client, 3, &Truthful{Type: typ})
			if err == nil {
				agent.Close()
				t.Fatal("NewAgent accepted the registration")
			}
			if !strings.Contains(err.Error(), "codec") {
				t.Errorf("NewAgent error %q, want a codec refusal", err)
			}
			if err := <-answered; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNegotiationBinaryEndToEnd runs a real TCP day under the binary
// codec and asserts the negotiated framing actually carried it: the
// per-codec byte counters must show binary traffic on both directions.
func TestNegotiationBinaryEndToEnd(t *testing.T) {
	obs.Default().Reset()
	center, err := StartCenter("127.0.0.1:0",
		WithCodec(CodecBinary),
		WithScheduler(&sched.Greedy{Pricer: quad, Rating: 2}),
		WithMechanism(mechanism.DefaultConfig()),
		WithPhaseDeadline(5*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer center.Close()

	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
	}
	ctx := context.Background()
	for i, typ := range types {
		a, err := Connect(ctx, center.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	if err := center.WaitForAgentsContext(ctx, len(types)); err != nil {
		t.Fatal(err)
	}
	if _, err := center.RunDayContext(ctx, 1); err != nil {
		t.Fatal(err)
	}

	snap := obs.Default().Snapshot()
	var binaryBytes, frames uint64
	for key, v := range snap.Counters {
		if strings.Contains(key, obs.MetricNetCodecBytesTotal) && strings.Contains(key, CodecBinary) {
			binaryBytes += v
		}
		if strings.Contains(key, obs.MetricNetFramesTotal) {
			frames += v
		}
	}
	if binaryBytes == 0 {
		t.Error("no binary codec bytes counted after a binary-negotiated day")
	}
	if frames == 0 {
		t.Error("no batch frames counted after a binary-negotiated day")
	}
}
