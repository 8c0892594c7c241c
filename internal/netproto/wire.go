// Package netproto implements the neighborhood model's communication
// substrate (Figure 1): a neighborhood center server and household ECC
// agents exchanging the day-ahead protocol over TCP —
//
//	center → agent: preference request for day d
//	agent → center: reported preference χ̂
//	center → agent: suggested allocation s
//	agent → center: realized consumption ω
//	center → agent: payment p (with score breakdown)
//
// Messages travel in length-prefixed frames. Registration (hello and
// welcome) always uses the legacy one-JSON-message-per-frame format;
// the exchange doubles as codec negotiation, after which a connection
// may switch to batched frames carrying multiple messages in either the
// JSON or the compact binary codec (see frame.go and codec.go). The
// package uses only the standard library (net, encoding/json, sync).
package netproto

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"enki/internal/core"
	"enki/internal/obs"
	"enki/internal/settle"
)

// MaxFrameSize bounds a single message frame; anything larger is a
// protocol violation (guards against a misbehaving or malicious peer).
const MaxFrameSize = 1 << 20

// Kind discriminates protocol messages.
type Kind string

// Protocol message kinds.
const (
	KindHello       Kind = "hello"       // agent → center: join the neighborhood
	KindWelcome     Kind = "welcome"     // center → agent: registration accepted
	KindRequest     Kind = "request"     // center → agent: report tomorrow's preference
	KindPreference  Kind = "preference"  // agent → center: reported preference
	KindAllocation  Kind = "allocation"  // center → agent: suggested allocation
	KindConsumption Kind = "consumption" // agent → center: realized consumption
	KindPayment     Kind = "payment"     // center → agent: settlement for the day
	KindError       Kind = "error"       // either direction: fatal protocol error

	// KindMetricsReport piggybacks a source's compact obs snapshot onto
	// the settlement wire (agent → center after the consumption reply;
	// shard → center appended to the payment batch) so the center can
	// assemble the federated cluster-wide metrics view. Emitted only when
	// metrics reporting is negotiated on (WithMetricsReporting); a center
	// that does not expect it rejects it like any other out-of-phase
	// message.
	KindMetricsReport Kind = "metricsReport"
)

// Message is the single frame type exchanged on the wire. Fields are
// populated according to Kind.
type Message struct {
	Kind Kind             `json:"kind"`
	ID   core.HouseholdID `json:"id"`
	Day  int              `json:"day"`

	// Trace carries the sender's span context so the receiver's spans
	// join the same settlement-day trace (deterministic trace IDs are
	// derived from the center's trace seed and the day number, never
	// from randomness). Nil outside a day cycle (hello/welcome).
	Trace *obs.TraceContext `json:"trace,omitempty"`

	// Token is the session-resumption credential. The center issues it
	// on the welcome; a reconnecting agent presents it on its hello to
	// resume the interrupted session (the center replays the phase
	// messages the agent missed) instead of registering fresh.
	Token string `json:"token,omitempty"`

	// Codecs (hello) offers the batch-frame codecs the agent can speak;
	// Codec (welcome) is the center's selection. Both empty on either
	// side keeps the connection on the legacy per-message JSON framing,
	// which is how a post-batching endpoint interoperates with a
	// pre-batching peer: an old center ignores the unknown hello field
	// and answers a codec-less welcome, an old agent offers nothing and
	// is answered in kind. The hello/welcome exchange itself always
	// travels legacy-framed.
	Codecs []string `json:"codecs,omitempty"` // hello: agent → center offer
	Codec  string   `json:"codec,omitempty"`  // welcome: center → agent selection

	Pref     *core.Preference `json:"pref,omitempty"`     // preference
	Interval *core.Interval   `json:"interval,omitempty"` // allocation, consumption

	Payment *PaymentDetail `json:"payment,omitempty"` // payment

	// Metrics is a metricsReport's federated snapshot payload.
	Metrics *obs.MetricsReport `json:"metrics,omitempty"`

	Err string `json:"err,omitempty"` // error
}

// PaymentDetail is the per-household settlement notice a payment
// message carries (see settle.PaymentDetail).
type PaymentDetail = settle.PaymentDetail

// WriteMessage frames and writes one message: a 4-byte big-endian
// length followed by the JSON encoding.
func WriteMessage(w io.Writer, m *Message) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("netproto: encode %s: %w", m.Kind, err)
	}
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("netproto: frame of %d bytes exceeds limit", len(payload))
	}
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], uint32(len(payload)))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("netproto: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("netproto: write payload: %w", err)
	}
	observeFrame(obs.DirectionSent, len(payload))
	return nil
}

// observeFrame counts one framed message and its on-wire size (header
// included) in the given direction, from this process's perspective.
func observeFrame(direction string, payloadLen int) {
	m := wireMetricsFor(direction, "")
	m.messages.Inc()
	m.bytes.Add(uint64(payloadLen) + 4)
}

// wireMetrics caches the handles one (direction, codec) pair of wire
// telemetry records into. Resolving them through the registry renders a
// label-qualified key per series — five per batch frame — so the wire
// resolves them once and again only when the registry generation moved
// (a test-time Reset), the internal/sched metricsFor pattern.
type wireMetrics struct {
	gen      uint64
	messages *obs.Counter
	bytes    *obs.Counter

	// The batch-frame series; nil for the legacy per-message framing,
	// which has no codec.
	frames        *obs.Counter
	frameMessages *obs.Histogram
	codecBytes    *obs.Counter
}

type wireMetricsKey struct{ direction, codec string }

var (
	wireMetricsMu    sync.Mutex
	wireMetricsCache = make(map[wireMetricsKey]*wireMetrics)
)

// wireMetricsFor returns the cached handles for a direction and a codec
// name ("" for legacy per-message frames).
func wireMetricsFor(direction, codec string) *wireMetrics {
	reg := obs.Default()
	gen := reg.Generation()
	key := wireMetricsKey{direction, codec}
	wireMetricsMu.Lock()
	defer wireMetricsMu.Unlock()
	m := wireMetricsCache[key]
	if m == nil || m.gen != gen {
		m = &wireMetrics{
			gen:      gen,
			messages: reg.Counter(obs.MetricNetMessagesTotal, obs.LabelDirection, direction),
			bytes:    reg.Counter(obs.MetricNetBytesTotal, obs.LabelDirection, direction),
		}
		if codec != "" {
			m.frames = reg.Counter(obs.MetricNetFramesTotal, obs.LabelDirection, direction)
			m.frameMessages = reg.Histogram(obs.MetricNetFrameMessages, obs.BatchBuckets)
			m.codecBytes = reg.Counter(obs.MetricNetCodecBytesTotal, obs.LabelCodec, codec, obs.LabelDirection, direction)
		}
		wireMetricsCache[key] = m
	}
	return m
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (*Message, error) {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err // io.EOF is meaningful to callers; do not wrap
	}
	size := binary.BigEndian.Uint32(header[:])
	if size > MaxFrameSize {
		return nil, fmt.Errorf("netproto: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("netproto: read payload: %w", err)
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("netproto: decode frame: %w", err)
	}
	observeFrame(obs.DirectionReceived, len(payload))
	return &m, nil
}
