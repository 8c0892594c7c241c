package netproto

import (
	"fmt"
	"net"
)

// KillLeaderOnce arms rs's chaos hook to kill the leader once, at the
// named kill point of day, for tests outside the package.
func KillLeaderOnce(rs *ReplicaSet, day int, point string) { rs.killAt = killOnce(day, point) }

// RawConn is a hand-driven household connection for protocol tests in
// and outside the package. It writes one-message JSON batch frames, the
// framing an agent registers in, and reads the center's frames, each of
// which carries one message.
type RawConn struct{ net.Conn }

// Send writes m as a one-message JSON batch frame.
func (c RawConn) Send(m *Message) error { return WriteBatch(c, jsonCodec{}, []*Message{m}) }

// Recv reads one frame and returns its one message.
func (c RawConn) Recv() (*Message, error) {
	msgs, err := ReadBatch(c)
	if err != nil {
		return nil, err
	}
	if len(msgs) != 1 {
		return nil, fmt.Errorf("netproto: frame carries %d messages, want 1", len(msgs))
	}
	return msgs[0], nil
}
