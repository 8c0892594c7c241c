package netproto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"enki/internal/core"
	"enki/internal/obs"
)

// Codec serializes protocol messages inside batch frames. The package
// has exactly two: CodecJSON (the reference codec, the one registration
// travels in) and CodecBinary (a compact fixed-layout binary encoding,
// roughly 4× smaller and an order of magnitude cheaper to encode).
// Decode takes the package's unexported slot, so no other package can
// add one. A codec must be a pure bijection on the Message fields it
// carries: Decode(Append(nil, m)) == m for every encodable m, which the
// cross-codec differential fuzz (FuzzCodecDifferential) enforces
// against the JSON reference.
type Codec interface {
	// Name is the codec's negotiation token ("json", "binary").
	Name() string
	// ID is the codec's one-byte wire tag inside batch frames.
	ID() byte
	// Append appends m's encoding to dst and returns the extended slice.
	Append(dst []byte, m *Message) ([]byte, error)
	// Decode parses one message into s and returns s's message;
	// nothing s held before reaches it. The message's payloads may
	// point into s, so it is valid until s is decoded into again.
	// Decode must not retain data.
	Decode(data []byte, s *slot) (*Message, error)
}

// slot is caller-owned decode storage: one Message plus inline storage
// for the payloads of the day-cycle kinds, so decoding a request,
// preference, allocation, consumption or payment into a reused slot
// allocates nothing. The cluster's shard links build and decode every
// leg in pooled slots; DecodeBatch gives each message a fresh one.
type slot struct {
	msg      Message
	pref     core.Preference
	interval core.Interval
	payment  PaymentDetail
}

// setPref stores p inline and points the message's Pref at it.
func (s *slot) setPref(p core.Preference) { s.pref = p; s.msg.Pref = &s.pref }

// setInterval stores iv inline and points the message's Interval at it.
func (s *slot) setInterval(iv core.Interval) { s.interval = iv; s.msg.Interval = &s.interval }

// setPayment stores p inline and points the message's Payment at it.
func (s *slot) setPayment(p PaymentDetail) { s.payment = p; s.msg.Payment = &s.payment }

// Codec names understood by this build. Negotiation tokens, WithCodec
// arguments, and -wire.codec flag values.
const (
	CodecJSON   = "json"
	CodecBinary = "binary"
)

// codecs is every codec this build speaks, indexed by wire ID.
var codecs = [...]Codec{jsonCodec{}, binaryCodec{}}

// LookupCodec resolves a codec by negotiation name.
func LookupCodec(name string) (Codec, bool) {
	for _, c := range codecs {
		if c.Name() == name {
			return c, true
		}
	}
	return nil, false
}

func lookupCodecID(id byte) (Codec, bool) {
	if int(id) >= len(codecs) {
		return nil, false
	}
	return codecs[id], true
}

// CodecNames lists the codecs in lexical order — the offer an agent
// puts on its hello.
func CodecNames() []string {
	names := make([]string, len(codecs))
	for i, c := range codecs {
		names[i] = c.Name()
	}
	slices.Sort(names)
	return names
}

// jsonCodec is the reference codec: encoding/json over the Message
// struct tags. Hello, welcome and registration errors always travel in
// it, whatever codec the connection then selects.
type jsonCodec struct{}

func (jsonCodec) Name() string { return CodecJSON }
func (jsonCodec) ID() byte     { return 0 }

func (jsonCodec) Append(dst []byte, m *Message) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("netproto: encode %s: %w", m.Kind, err)
	}
	return append(dst, payload...), nil
}

func (jsonCodec) Decode(data []byte, s *slot) (*Message, error) {
	*s = slot{}
	if err := json.Unmarshal(data, &s.msg); err != nil {
		return nil, fmt.Errorf("netproto: decode frame: %w", err)
	}
	return &s.msg, nil
}

// binaryCodec is the compact codec: a fixed field order with a presence
// bitmask for the optional payloads, varint integers, and raw-byte
// strings. Unlike JSON it round-trips arbitrary byte strings (no UTF-8
// normalization), so its round-trip contract is strictly wider than the
// reference codec's.
//
// Layout:
//
//	u8      kind code (wireKinds index+1; 0 = explicit string follows)
//	[str]   kind (only when code == 0)
//	varint  id (zigzag)
//	varint  day (zigzag)
//	uvarint presence bitmask (binTrace … binMetrics bits)
//	fields in bit order, each:
//	  trace    = str traceID, str spanID
//	  token    = str
//	  pref     = varint begin, end, duration (zigzag)
//	  interval = varint begin, end (zigzag)
//	  payment  = 6 × f64 (LE bits)
//	  err      = str
//	  codecs   = uvarint count, count × str
//	  codec    = str
//	  metrics  = str source, counters, gauges, histograms
//
// str = uvarint length + raw bytes. The mask is a uvarint, so every
// day-cycle message's mask still fits one byte. A metrics report's
// three series maps are each map(uvarint value), map(f64) and
// map(histogram), where map(v) = uvarint n+1 (0 for a nil map) followed
// by n × (str key, v) in sorted-key order, so a report encodes to the
// same bytes however its maps were built, and
//
//	histogram = list(f64) bounds, list(uvarint) buckets, uvarint count,
//	            f64 sum, uvarint n, n × (varint bucket, f64 value, str traceID)
//
// with list(v) = uvarint n+1 (0 for a nil slice) followed by n × v. Nil
// and empty exemplars both decode to nil, as they do from JSON, where
// they are omitted.
type binaryCodec struct{}

func (binaryCodec) Name() string { return CodecBinary }
func (binaryCodec) ID() byte     { return 1 }

// wireKinds assigns the protocol kinds their one-byte codes. Appending
// is safe; reordering is a wire break.
var wireKinds = []Kind{
	KindHello, KindWelcome, KindRequest, KindPreference,
	KindAllocation, KindConsumption, KindPayment, KindError,
	KindMetricsReport,
}

// kindCode is a kind's one-byte code: its wireKinds index+1, or 0 for a
// kind outside the table. It is wireKinds as a switch, which the
// compiler turns into a few length and content comparisons instead of a
// walk over the table; TestKindCodeMatchesWireKinds pins the two
// together.
func kindCode(k Kind) byte {
	switch k {
	case KindHello:
		return 1
	case KindWelcome:
		return 2
	case KindRequest:
		return 3
	case KindPreference:
		return 4
	case KindAllocation:
		return 5
	case KindConsumption:
		return 6
	case KindPayment:
		return 7
	case KindError:
		return 8
	case KindMetricsReport:
		return 9
	}
	return 0
}

// Presence bits of the binary codec's optional fields.
const (
	binTrace = 1 << iota
	binToken
	binPref
	binInterval
	binPayment
	binErr
	binCodecs
	binCodec
	binMetrics
)

// appendUvarint appends v as binary.AppendUvarint does; values of up
// to three bytes, every day-cycle field of a million-household day, are
// written by one append.
func appendUvarint(dst []byte, v uint64) []byte {
	switch {
	case v < 1<<7:
		return append(dst, byte(v))
	case v < 1<<14:
		return append(dst, byte(v)|0x80, byte(v>>7))
	case v < 1<<21:
		return append(dst, byte(v)|0x80, byte(v>>7)|0x80, byte(v>>14))
	}
	return binary.AppendUvarint(dst, v)
}

// zigzag maps x to the uvarint binary.AppendVarint writes for it;
// appendUvarint(dst, zigzag(x)) is binary.AppendVarint(dst, x).
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// unzigzag inverts zigzag, as binary.Varint does.
func unzigzag(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func (binaryCodec) Append(dst []byte, m *Message) ([]byte, error) {
	var mask uint64
	if m.Trace != nil {
		mask |= binTrace
	}
	if m.Token != "" {
		mask |= binToken
	}
	if m.Pref != nil {
		mask |= binPref
	}
	if m.Interval != nil {
		mask |= binInterval
	}
	if m.Payment != nil {
		mask |= binPayment
	}
	if m.Err != "" {
		mask |= binErr
	}
	if len(m.Codecs) > 0 { // JSON omits an empty offer too: both decode it as nil
		mask |= binCodecs
	}
	if m.Codec != "" {
		mask |= binCodec
	}
	if m.Metrics != nil {
		mask |= binMetrics
	}

	code := kindCode(m.Kind)
	dst = append(dst, code)
	if code == 0 {
		dst = appendString(dst, string(m.Kind))
	}
	dst = appendUvarint(dst, zigzag(int64(m.ID)))
	dst = appendUvarint(dst, zigzag(int64(m.Day)))
	dst = appendUvarint(dst, mask)
	if mask&binTrace != 0 {
		dst = appendString(dst, m.Trace.TraceID)
		dst = appendString(dst, m.Trace.SpanID)
	}
	if mask&binToken != 0 {
		dst = appendString(dst, m.Token)
	}
	if mask&binPref != 0 {
		dst = appendUvarint(dst, zigzag(int64(m.Pref.Window.Begin)))
		dst = appendUvarint(dst, zigzag(int64(m.Pref.Window.End)))
		dst = appendUvarint(dst, zigzag(int64(m.Pref.Duration)))
	}
	if mask&binInterval != 0 {
		dst = appendUvarint(dst, zigzag(int64(m.Interval.Begin)))
		dst = appendUvarint(dst, zigzag(int64(m.Interval.End)))
	}
	if mask&binPayment != 0 {
		p := m.Payment
		for _, f := range [...]float64{p.Amount, p.Flexibility, p.Defection, p.SocialCost, p.TotalCost, p.PeakLoad} {
			dst = appendFloat64(dst, f)
		}
	}
	if mask&binErr != 0 {
		dst = appendString(dst, m.Err)
	}
	if mask&binCodecs != 0 {
		dst = appendUvarint(dst, uint64(len(m.Codecs)))
		for _, name := range m.Codecs {
			dst = appendString(dst, name)
		}
	}
	if mask&binCodec != 0 {
		dst = appendString(dst, m.Codec)
	}
	if mask&binMetrics != 0 {
		dst = appendMetrics(dst, m.Metrics)
	}
	return dst, nil
}

// appendMetrics appends a metrics report's fields (see the layout
// above).
func appendMetrics(dst []byte, rep *obs.MetricsReport) []byte {
	snap := &rep.Snapshot
	dst = appendString(dst, rep.Source)
	dst = appendCount(dst, len(snap.Counters), snap.Counters == nil)
	for _, k := range sortedKeys(snap.Counters) {
		dst = appendUvarint(appendString(dst, k), snap.Counters[k])
	}
	dst = appendCount(dst, len(snap.Gauges), snap.Gauges == nil)
	for _, k := range sortedKeys(snap.Gauges) {
		dst = appendFloat64(appendString(dst, k), snap.Gauges[k])
	}
	dst = appendCount(dst, len(snap.Histograms), snap.Histograms == nil)
	for _, k := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[k]
		dst = appendCount(appendString(dst, k), len(h.Bounds), h.Bounds == nil)
		for _, b := range h.Bounds {
			dst = appendFloat64(dst, b)
		}
		dst = appendCount(dst, len(h.Buckets), h.Buckets == nil)
		for _, n := range h.Buckets {
			dst = appendUvarint(dst, n)
		}
		dst = appendFloat64(appendUvarint(dst, h.Count), h.Sum)
		dst = appendUvarint(dst, uint64(len(h.Exemplars)))
		for _, e := range h.Exemplars {
			dst = appendString(appendFloat64(appendUvarint(dst, zigzag(int64(e.Bucket))), e.Value), e.TraceID)
		}
	}
	return dst
}

// appendCount appends a nilable count: 0 for nil, n+1 otherwise.
func appendCount(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return appendUvarint(dst, uint64(n)+1)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// errTruncated is the binary codec's error for a message that ends
// inside a field.
var errTruncated = errors.New("netproto: decode frame: truncated binary message")

// uvarintAt reads the uvarint at data[at:] and returns it with the
// position after it, or a negative position when at is already
// negative or the bytes there hold no uvarint, so a failed read carries
// through every later one. Values of up to three bytes, every
// day-cycle field of a million-household day, are read by straight-line
// code, longer ones by binary.Uvarint; all decode as binary.Uvarint
// decodes them, non-canonical (overlong) encodings included.
func uvarintAt(data []byte, at int) (uint64, int) {
	if uint(at) < uint(len(data)) {
		b := data[at:]
		if b[0] < 0x80 {
			return uint64(b[0]), at + 1
		}
		if len(b) > 1 && b[1] < 0x80 {
			return uint64(b[0]&0x7f) | uint64(b[1])<<7, at + 2
		}
		if len(b) > 2 && b[2] < 0x80 {
			return uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7 | uint64(b[2])<<14, at + 3
		}
	}
	return uvarintTail(data, at)
}

// uvarintTail is uvarintAt's path for a long or truncated uvarint, and
// for a negative position.
func uvarintTail(data []byte, at int) (uint64, int) {
	if at < 0 || at > len(data) {
		return 0, -1
	}
	v, n := binary.Uvarint(data[at:])
	if n <= 0 {
		return 0, -1
	}
	return v, at + n
}

// varintAt reads the zigzag varint at data[at:] as uvarintAt reads a
// uvarint.
func varintAt(data []byte, at int) (int64, int) {
	ux, at := uvarintAt(data, at)
	return unzigzag(ux), at
}

// binReader walks the binary codec's rare fields (kind strings, trace,
// token, err, codec offers, codec, metrics) with saturating error
// state.
type binReader struct {
	data []byte
	err  error
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, at := uvarintAt(r.data, 0)
	if at < 0 {
		r.fail()
		return 0
	}
	r.data = r.data[at:]
	return v
}

func (r *binReader) varint() int64 { return unzigzag(r.uvarint()) }

func (r *binReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)) {
		r.fail()
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// items reads a count of items at least min bytes long each, and fails
// when the bytes left cannot hold them, so no allocation is ever sized
// by an untrusted count. A nilable count is written as n+1, with 0 for
// nil, which items reports as -1, as it does a failure.
func (r *binReader) items(min int, nilable bool) int {
	n := r.uvarint()
	if nilable {
		if n == 0 {
			return -1
		}
		n--
	}
	if r.err == nil && n > uint64(len(r.data)/min) {
		r.fail()
	}
	if r.err != nil {
		return -1
	}
	return int(n)
}

func (r *binReader) float64() float64 {
	if r.err != nil || len(r.data) < 8 {
		r.fail()
		return 0
	}
	f := float64At(r.data, 0)
	r.data = r.data[8:]
	return f
}

// rareBefore and rareAfter are the rare fields on either side of the
// day-cycle payloads (pref, interval, payment) in the layout's field
// order; a set bit past binMetrics names no field and is ignored.
const (
	rareBefore = binTrace | binToken
	rareAfter  = ^uint64(rareBefore | binPref | binInterval | binPayment)
)

// Decode resets only s's message: the inline payloads are reachable only
// through the pointers it sets, so stale ones are never read. It threads
// one position through the header and the day-cycle payloads, and hands
// the rare fields to binReader.
func (binaryCodec) Decode(data []byte, s *slot) (*Message, error) {
	s.msg = Message{}
	m := &s.msg
	if len(data) == 0 {
		return nil, errTruncated
	}
	at := 1
	switch code := data[0]; {
	case code == 0:
		r := binReader{data: data[1:]}
		m.Kind = Kind(r.string())
		if r.err != nil {
			return nil, r.err
		}
		at = len(data) - len(r.data)
	case int(code) <= len(wireKinds):
		m.Kind = wireKinds[code-1]
	default:
		return nil, fmt.Errorf("netproto: decode frame: unknown kind code %d", code)
	}
	id, at := varintAt(data, at)
	day, at := varintAt(data, at)
	mask, at := uvarintAt(data, at)
	m.ID, m.Day = core.HouseholdID(id), int(day)
	if at < 0 {
		return nil, errTruncated
	}
	if mask&rareBefore != 0 {
		r := binReader{data: data[at:]}
		if mask&binTrace != 0 {
			m.Trace = &obs.TraceContext{TraceID: r.string(), SpanID: r.string()}
		}
		if mask&binToken != 0 {
			m.Token = r.string()
		}
		if r.err != nil {
			return nil, r.err
		}
		at = len(data) - len(r.data)
	}
	if mask&binPref != 0 {
		var begin, end, duration int64
		begin, at = varintAt(data, at)
		end, at = varintAt(data, at)
		duration, at = varintAt(data, at)
		s.setPref(core.Preference{Window: core.Interval{Begin: int(begin), End: int(end)}, Duration: int(duration)})
	}
	if mask&binInterval != 0 {
		var begin, end int64
		begin, at = varintAt(data, at)
		end, at = varintAt(data, at)
		s.setInterval(core.Interval{Begin: int(begin), End: int(end)})
	}
	if at < 0 {
		return nil, errTruncated
	}
	if mask&binPayment != 0 {
		if len(data)-at < 6*8 {
			return nil, errTruncated
		}
		p := data[at : at+6*8]
		s.setPayment(PaymentDetail{
			Amount:      float64At(p, 0),
			Flexibility: float64At(p, 8),
			Defection:   float64At(p, 16),
			SocialCost:  float64At(p, 24),
			TotalCost:   float64At(p, 32),
			PeakLoad:    float64At(p, 40),
		})
		at += 6 * 8
	}
	if mask&rareAfter != 0 {
		r := binReader{data: data[at:]}
		if mask&binErr != 0 {
			m.Err = r.string()
		}
		if mask&binCodecs != 0 {
			if n := r.items(1, false); n >= 0 { // each offer needs at least its length byte
				m.Codecs = make([]string, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					m.Codecs = append(m.Codecs, r.string())
				}
			}
		}
		if mask&binCodec != 0 {
			m.Codec = r.string()
		}
		if mask&binMetrics != 0 {
			m.Metrics = r.metrics()
		}
		if r.err != nil {
			return nil, r.err
		}
		at = len(data) - len(r.data)
	}
	if at != len(data) {
		return nil, fmt.Errorf("netproto: decode frame: %d trailing bytes", len(data)-at)
	}
	return m, nil
}

// float64At reads the little-endian float64 at b[at:].
func float64At(b []byte, at int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[at:]))
}

// metrics reads a metrics report appendMetrics wrote. The minimum entry
// sizes bound each count: a counter is at least a key length and a
// value byte, a gauge a key length and 8 bytes, a histogram a key
// length, three count bytes and its 8-byte sum, and an exemplar a
// bucket byte, 8 bytes and a trace ID length.
func (r *binReader) metrics() *obs.MetricsReport {
	rep := &obs.MetricsReport{Source: r.string()}
	snap := &rep.Snapshot
	if n := r.items(2, true); n >= 0 {
		snap.Counters = make(map[string]uint64, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.string()
			snap.Counters[k] = r.uvarint()
		}
	}
	if n := r.items(9, true); n >= 0 {
		snap.Gauges = make(map[string]float64, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.string()
			snap.Gauges[k] = r.float64()
		}
	}
	if n := r.items(13, true); n >= 0 {
		snap.Histograms = make(map[string]obs.HistogramSnapshot, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.string()
			var h obs.HistogramSnapshot
			if n := r.items(8, true); n >= 0 {
				h.Bounds = make([]float64, n)
				for j := range h.Bounds {
					h.Bounds[j] = r.float64()
				}
			}
			if n := r.items(1, true); n >= 0 {
				h.Buckets = make([]uint64, n)
				for j := range h.Buckets {
					h.Buckets[j] = r.uvarint()
				}
			}
			h.Count, h.Sum = r.uvarint(), r.float64()
			if n := r.items(10, false); n > 0 {
				h.Exemplars = make([]obs.Exemplar, n)
				for j := range h.Exemplars {
					h.Exemplars[j] = obs.Exemplar{Bucket: int(r.varint()), Value: r.float64(), TraceID: r.string()}
				}
			}
			snap.Histograms[k] = h
		}
	}
	return rep
}

// selectCodec is the center's half of codec negotiation: its configured
// codec when the hello offers it, JSON otherwise — the codec the hello
// itself arrived in, which every agent speaks.
func selectCodec(preferred Codec, offered []string) Codec {
	if slices.Contains(offered, preferred.Name()) {
		return preferred
	}
	return jsonCodec{}
}
