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
// Every message travels in a length-prefixed batch frame, encoded with
// either the JSON or the compact binary codec (see frame.go and
// codec.go). Registration (hello and welcome) travels in JSON and
// doubles as codec negotiation: the welcome names the codec every later
// frame of the connection uses. The package uses only the standard
// library (net, encoding/json, sync).
package netproto

import (
	"sync"

	"enki/internal/core"
	"enki/internal/obs"
	"enki/internal/settle"
)

// MaxFrameSize bounds a single frame's payload; anything larger is a
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
	// Codec (welcome) is the center's selection, the codec of every
	// later frame on the connection. The hello and welcome themselves
	// always travel in JSON.
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

// wireMetrics caches the handles one (direction, codec) pair of wire
// telemetry records into. Resolving them through the registry renders a
// label-qualified key per series — five per batch frame — so the wire
// resolves them once and again only when the registry generation moved
// (a test-time Reset), the internal/sched metricsFor pattern.
type wireMetrics struct {
	gen           uint64
	messages      *obs.Counter
	bytes         *obs.Counter
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
// name.
func wireMetricsFor(direction, codec string) *wireMetrics {
	reg := obs.Default()
	gen := reg.Generation()
	key := wireMetricsKey{direction, codec}
	wireMetricsMu.Lock()
	defer wireMetricsMu.Unlock()
	m := wireMetricsCache[key]
	if m == nil || m.gen != gen {
		m = &wireMetrics{
			gen:           gen,
			messages:      reg.Counter(obs.MetricNetMessagesTotal, obs.LabelDirection, direction),
			bytes:         reg.Counter(obs.MetricNetBytesTotal, obs.LabelDirection, direction),
			frames:        reg.Counter(obs.MetricNetFramesTotal, obs.LabelDirection, direction),
			frameMessages: reg.Histogram(obs.MetricNetFrameMessages, obs.BatchBuckets),
			codecBytes:    reg.Counter(obs.MetricNetCodecBytesTotal, obs.LabelCodec, codec, obs.LabelDirection, direction),
		}
		wireMetricsCache[key] = m
	}
	return m
}
