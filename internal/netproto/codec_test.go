package netproto

import (
	"bytes"
	"context"
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

// TestCodecRoundTrip: every registered codec must reproduce a
// fully-populated message exactly, and each protocol kind must survive
// with its sparse field set.
func TestCodecRoundTrip(t *testing.T) {
	kinds := []*Message{
		{Kind: KindHello, ID: 1, Codecs: []string{"json"}},
		{Kind: KindWelcome, ID: 1, Token: "t", Codec: "json"},
		{Kind: KindRequest, ID: 2, Day: 1},
		{Kind: KindError, Err: "boom"},
		fullMessage(),
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
// write/read path (headers, counts, per-message lengths) for each codec
// and for the degenerate single-message batch.
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
	for _, name := range CodecNames() {
		c, _ := LookupCodec(name)
		for _, in := range batches {
			var buf bytes.Buffer
			if err := WriteBatch(&buf, c, in); err != nil {
				t.Fatalf("%s write: %v", name, err)
			}
			out, err := ReadBatch(&buf)
			if err != nil {
				t.Fatalf("%s read: %v", name, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Errorf("%s batch round trip mismatch (%d msgs)", name, len(in))
			}
		}
	}
}

// TestDecodeBatchRejectsCorruption: truncations and bit flips must fail
// loudly, never panic or return phantom messages.
func TestDecodeBatchRejectsCorruption(t *testing.T) {
	c, _ := LookupCodec(CodecBinary)
	frame, err := AppendBatch(nil, c, []*Message{fullMessage(), fullMessage()})
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

// TestSelectCodec covers the negotiation matrix: empty offers stay
// legacy, unknown preferences fall back to JSON, and the preferred
// codec wins when offered.
func TestSelectCodec(t *testing.T) {
	cases := []struct {
		preferred string
		offered   []string
		want      string // "" means legacy (nil codec)
	}{
		{"", nil, ""},
		{CodecBinary, nil, ""},
		{"", []string{"json"}, "json"},
		{CodecBinary, []string{"json", "binary"}, "binary"},
		{CodecBinary, []string{"json"}, "json"},
		{"zstd", []string{"json", "binary"}, "json"},
		{"zstd", []string{"snappy"}, ""},
	}
	for _, tc := range cases {
		c := selectCodec(tc.preferred, tc.offered)
		got := ""
		if c != nil {
			got = c.Name()
		}
		if got != tc.want {
			t.Errorf("selectCodec(%q, %v) = %q, want %q", tc.preferred, tc.offered, got, tc.want)
		}
	}
}

// legacyDay drives one scripted day-cycle exchange for a single
// household over raw legacy frames — the behaviour of a pre-batching
// peer, which knows nothing of Codecs fields or batch frames.
func legacyDay(t *testing.T, conn net.Conn, id core.HouseholdID) {
	t.Helper()
	for {
		m, err := ReadMessage(conn)
		if err != nil {
			return // center closed after the day
		}
		switch m.Kind {
		case KindRequest:
			pref := core.MustPreference(18, 22, 2)
			if err := WriteMessage(conn, &Message{Kind: KindPreference, ID: id, Day: m.Day, Pref: &pref}); err != nil {
				t.Errorf("legacy preference: %v", err)
				return
			}
		case KindAllocation:
			if err := WriteMessage(conn, &Message{Kind: KindConsumption, ID: id, Day: m.Day, Interval: m.Interval}); err != nil {
				t.Errorf("legacy consumption: %v", err)
				return
			}
		case KindPayment:
			return // day complete
		default:
			t.Errorf("legacy agent got unexpected %s", m.Kind)
			return
		}
	}
}

// TestNegotiationLegacyAgentAgainstNewCenter is the backward-compat
// acceptance test: an agent that predates codec negotiation (offers
// nothing, speaks only legacy frames) registers against a center
// preferring the binary codec and settles a full day.
func TestNegotiationLegacyAgentAgainstNewCenter(t *testing.T) {
	center, err := StartCenter("127.0.0.1:0",
		WithCodec(CodecBinary),
		WithPhaseDeadline(5*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer center.Close()

	conn, err := net.Dial("tcp", center.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A pre-negotiation hello: no Codecs offer.
	if err := WriteMessage(conn, &Message{Kind: KindHello, ID: 5}); err != nil {
		t.Fatal(err)
	}
	welcome, err := ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if welcome.Kind != KindWelcome {
		t.Fatalf("got %s, want welcome", welcome.Kind)
	}
	if welcome.Codec != "" {
		t.Fatalf("center selected codec %q for a legacy agent; must stay legacy", welcome.Codec)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		legacyDay(t, conn, 5)
	}()
	record, err := center.RunDayContext(context.Background(), 1)
	if err != nil {
		t.Fatalf("day against legacy agent: %v", err)
	}
	if len(record.Payments) != 1 || record.Substituted != nil || record.Absent != nil {
		t.Fatalf("legacy agent day degraded: %+v", record)
	}
	<-done
}

// TestNegotiationNewAgentAgainstLegacyCenter covers the other
// direction: a modern agent offers codecs, but the center (simulated
// pre-PR peer) answers a codec-less welcome — the agent must stay on
// legacy framing and complete the day.
func TestNegotiationNewAgentAgainstLegacyCenter(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()

	type helloResult struct {
		hello *Message
		err   error
	}
	helloCh := make(chan helloResult, 1)
	go func() {
		m, err := ReadMessage(server)
		if err == nil {
			// A legacy center: ignores the unknown Codecs field, answers
			// without a codec selection.
			err = WriteMessage(server, &Message{Kind: KindWelcome, ID: m.ID, Token: "tok"})
		}
		helloCh <- helloResult{m, err}
	}()

	typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
	agent, err := NewAgent(client, 3, &Truthful{Type: typ})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	hr := <-helloCh
	if hr.err != nil {
		t.Fatal(hr.err)
	}
	if len(hr.hello.Codecs) == 0 {
		t.Error("modern agent offered no codecs")
	}

	// The agent must answer a legacy-framed request with a legacy frame.
	if err := WriteMessage(server, &Message{Kind: KindRequest, ID: 3, Day: 1}); err != nil {
		t.Fatal(err)
	}
	reply, err := ReadMessage(server)
	if err != nil {
		t.Fatalf("agent reply not legacy-framed: %v", err)
	}
	if reply.Kind != KindPreference || reply.Pref == nil {
		t.Fatalf("got %s, want preference", reply.Kind)
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
