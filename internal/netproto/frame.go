package netproto

import (
	"encoding/binary"
	"fmt"
	"io"

	"enki/internal/obs"
)

// Batch frame layout, the one framing of every TCP connection and
// cluster shard link:
//
//	u32 BE   payload length (everything after these 4 bytes)
//	u8       codec ID
//	uvarint  message count
//	count ×  { uvarint message length, message bytes }
//
// A frame carries 1..n messages encoded with one codec, and names that
// codec itself, so the reader never has to guess. A TCP frame carries
// one message: hello, welcome and registration errors in JSON, the day
// cycle in the codec the welcome selected.

// DefaultBatchSize is the messages-per-frame cap applied when batching
// is enabled without an explicit WithBatchSize.
const DefaultBatchSize = 64

// frameOverhead is the fixed per-frame cost: length header, codec ID.
const frameOverhead = 4 + 1

// AppendBatch encodes msgs into one batch frame appended to dst. It is
// the allocation-free core of WriteBatch, exposed for benchmarks and
// the in-process cluster links.
func AppendBatch(dst []byte, c Codec, msgs []*Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, c.ID()) // length backpatched below
	dst = appendUvarint(dst, uint64(len(msgs)))
	for _, m := range msgs {
		var err error
		if dst, err = appendSized(dst, c, m); err != nil {
			return nil, err
		}
	}
	payload := len(dst) - start - 4
	if payload > MaxFrameSize {
		return nil, fmt.Errorf("netproto: batch frame of %d bytes exceeds limit", payload)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(payload))
	return dst, nil
}

// appendSized appends m's encoding to dst behind its uvarint length. The
// message is encoded in place after a one-byte length, written in place
// when it fits — any message under 128 bytes, which covers every binary
// day-cycle message — and shifted right only when its length needs a
// wider varint. The binary codec is called directly, not through the
// Codec interface: the codec set is closed.
func appendSized(dst []byte, c Codec, m *Message) ([]byte, error) {
	at := len(dst)
	var err error
	if bin, ok := c.(binaryCodec); ok {
		dst, err = bin.Append(append(dst, 0), m)
	} else {
		dst, err = c.Append(append(dst, 0), m)
	}
	if err != nil {
		return nil, err
	}
	size := len(dst) - at - 1
	if size < 0x80 {
		dst[at] = byte(size)
		return dst, nil
	}
	var length [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(length[:], uint64(size))
	dst = append(dst, length[1:w]...) // room for the wider length
	copy(dst[at+w:], dst[at+1:at+1+size])
	copy(dst[at:], length[:w])
	return dst, nil
}

// WriteBatch frames and writes msgs as one batch frame encoded with c,
// and records the frame in the wire metrics (frames, messages-per-frame
// histogram, per-codec bytes).
func WriteBatch(w io.Writer, c Codec, msgs []*Message) error {
	frame, err := AppendBatch(nil, c, msgs)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("netproto: write frame: %w", err)
	}
	observeBatch(obs.DirectionSent, c, len(msgs), len(frame))
	return nil
}

// observeBatch counts one batch frame: its messages and bytes, the
// frame count, the messages-per-frame histogram, and per-codec byte
// volume.
func observeBatch(direction string, c Codec, msgs, wireBytes int) {
	m := wireMetricsFor(direction, c.Name())
	m.messages.Add(uint64(msgs))
	m.bytes.Add(uint64(wireBytes))
	m.frames.Inc()
	m.frameMessages.Observe(float64(msgs))
	m.codecBytes.Add(uint64(wireBytes))
	if rec := obs.DefaultRecorder(); rec.Enabled() {
		rec.Record(obs.Event{
			Kind:   obs.EventWireFrame,
			Shard:  -1,
			Codec:  c.Name(),
			Action: direction,
			N:      msgs,
			Bytes:  wireBytes,
		})
	}
}

// decodeFrame is the one batch-frame parser: it decodes the messages of
// a frame payload (everything after the u32 length header) in order,
// the i-th into the slot slotAt(i) returns, and reports the frame's
// codec and message count. slotAt is asked for a slot only when a
// message is about to be decoded into it, so storage follows the
// messages actually decoded, never the count the frame claims. On
// error the caller discards every slot handed out for the frame.
func decodeFrame(payload []byte, slotAt func(i int) *slot) (Codec, int, error) {
	if len(payload) < 1 {
		return nil, 0, fmt.Errorf("netproto: empty batch frame")
	}
	c, ok := lookupCodecID(payload[0])
	if !ok {
		return nil, 0, fmt.Errorf("netproto: unknown codec id %d", payload[0])
	}
	_, bin := c.(binaryCodec) // called directly below: the codec set is closed
	count, at := uvarintAt(payload, 1)
	if at < 0 {
		return nil, 0, fmt.Errorf("netproto: batch frame missing message count")
	}
	if count > uint64(len(payload)-at) {
		return nil, 0, fmt.Errorf("netproto: batch frame claims %d messages in %d bytes", count, len(payload)-at)
	}
	for i := 0; i < int(count); i++ {
		size, next := uvarintAt(payload, at)
		if next < 0 || size > uint64(len(payload)-next) {
			return nil, 0, fmt.Errorf("netproto: batch frame message %d truncated", i)
		}
		at = next + int(size)
		var err error
		if bin {
			_, err = binaryCodec{}.Decode(payload[next:at], slotAt(i))
		} else {
			_, err = c.Decode(payload[next:at], slotAt(i))
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if at != len(payload) {
		return nil, 0, fmt.Errorf("netproto: batch frame has %d trailing bytes", len(payload)-at)
	}
	return c, int(count), nil
}

// DecodeBatch parses one batch frame payload (everything after the u32
// length header) into messages. Each message gets its own freshly
// allocated slot, so the result may be retained indefinitely.
func DecodeBatch(payload []byte) ([]*Message, error) {
	var msgs []*Message
	_, _, err := decodeFrame(payload, func(int) *slot {
		s := new(slot)
		msgs = append(msgs, &s.msg)
		return s
	})
	if err != nil {
		return nil, err
	}
	return msgs, nil
}

// ReadBatch reads one batch frame from r and decodes its messages,
// recording the frame in the wire metrics.
func ReadBatch(r io.Reader) ([]*Message, error) {
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
	msgs, err := DecodeBatch(payload)
	if err != nil {
		return nil, err
	}
	if len(msgs) > 0 {
		c, _ := lookupCodecID(payload[0])
		observeBatch(obs.DirectionReceived, c, len(msgs), int(size)+4)
	}
	return msgs, nil
}

// frameReader adapts the batch framing to the one-message-at-a-time
// read loops of the center and agent: it reads a frame when its buffer
// runs dry and hands out the decoded messages in order.
type frameReader struct {
	r       io.Reader
	pending []*Message
}

func (fr *frameReader) next() (*Message, error) {
	for len(fr.pending) == 0 {
		msgs, err := ReadBatch(fr.r)
		if err != nil {
			return nil, err
		}
		fr.pending = msgs
	}
	m := fr.pending[0]
	fr.pending = fr.pending[1:]
	return m, nil
}
