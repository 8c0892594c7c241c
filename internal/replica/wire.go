package replica

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Message kinds of the replica peer protocol. Peer links use this
// package's own framing — a 4-byte big-endian length followed by one
// JSON message (see WriteMessage) — not the settlement wire's batch
// frames.
const (
	// MsgAppend carries one entry from the leader; the follower inserts
	// it and answers MsgAck.
	MsgAppend = "append"
	// MsgCommit raises the follower's commit watermark; the follower
	// answers MsgAck.
	MsgCommit = "commit"
	// MsgAck acknowledges an append or commit. OK false carries a
	// Reason ("not leader", "gap") and, for gaps, the follower's
	// LastIndex so the leader can resend the missing suffix.
	MsgAck = "ack"
	// MsgSync asks a follower for its whole log; the follower answers
	// MsgLog.
	MsgSync = "sync"
	// MsgLog returns a follower's entries and commit watermark to a
	// syncing new leader.
	MsgLog = "log"
)

// Message is one frame of the replica peer protocol.
type Message struct {
	Kind      string  `json:"kind"`
	Term      uint64  `json:"term,omitempty"`
	From      int     `json:"from"`
	Commit    uint64  `json:"commit,omitempty"`
	OK        bool    `json:"ok,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	LastIndex uint64  `json:"lastIndex,omitempty"`
	Entry     *Entry  `json:"entry,omitempty"`
	Entries   []Entry `json:"entries,omitempty"`
}

// MaxFrameSize bounds one peer frame. A day entry carries one ledger
// line, but a takeover's MsgLog carries a replica's whole log, which is
// never compacted, so the bound is generous.
const MaxFrameSize = 1 << 24

// WriteMessage frames and writes one peer message: a 4-byte big-endian
// length followed by the JSON encoding.
func WriteMessage(w io.Writer, m *Message) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("replica: encode %s: %w", m.Kind, err)
	}
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("replica: frame of %d bytes exceeds limit", len(payload))
	}
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], uint32(len(payload)))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("replica: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("replica: write payload: %w", err)
	}
	return nil
}

// ReadMessage reads one framed peer message.
func ReadMessage(r io.Reader) (*Message, error) {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err // io.EOF is meaningful to callers; do not wrap
	}
	size := binary.BigEndian.Uint32(header[:])
	if size > MaxFrameSize {
		return nil, fmt.Errorf("replica: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("replica: read payload: %w", err)
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("replica: decode frame: %w", err)
	}
	return &m, nil
}
