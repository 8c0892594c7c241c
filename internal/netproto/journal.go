package netproto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"enki/internal/mechanism"
	"enki/internal/obs"
)

// journalTailCap bounds the in-memory ring of recent lines the operator
// API's /api/v1/ledger/tail serves without re-reading the file. It is
// the same bound the HTTP surface enforces with a 400 on overlarge n.
const journalTailCap = obs.MaxLedgerTail

// Journal persists the audit ledger as JSON Lines: one
// mechanism.LedgerEntry line per settled day (see WithLedger), the one
// persisted record of a day in every topology, which mechanism.ReadLedger
// reads back and LedgerEntry.Audit re-derives. Writes are serialized,
// one Write call per line. The most recent lines are retained in a
// bounded ring, which is what makes a Journal an obs.LedgerTailer.
//
// The ring owns what it retains. A line the writer lends for the call
// (a ledger line in a pooled buffer) is copied into its slot's own
// storage, which the slot reuses; a line that does not fit replaces it
// with a copy of exactly that line, never grown by append's 1.25×. A
// line whose bytes stay unchanged for good (a replica log's committed
// entry, a line AppendValue marshalled) is kept: its slot aliases it
// and never writes into it.
type Journal struct {
	mu   sync.Mutex
	w    io.Writer
	tail []tailSlot // ring of the last journalTailCap lines
	next int        // ring write position
	len  int        // lines retained (≤ journalTailCap)
}

// tailSlot is one line of the tail ring: the retained line, and the
// slot's own storage, which holds the line when it was lent and is kept
// for the next lent line when the slot aliases a kept one.
type tailSlot struct {
	line []byte
	own  []byte
}

// NewJournal wraps a writer (typically an os.File opened with append).
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// AppendValue writes any JSON-marshalable value as one line, encoded by
// json.Marshal, with the same locking and crash-recovery semantics as
// every other line. The program's ledger does not go through it: a
// center, a replica set and a cluster's shard workers encode each entry
// with mechanism.LedgerEntry.AppendJSON, which writes the bytes
// json.Marshal would (see ledgerLine). It stays as the reflective
// reference that enkibench's replay check compares written ledger lines
// against, beside its replay of mechanism.BuildLedgerEntry.
func (j *Journal) AppendValue(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("netproto: encode journal record: %w", err)
	}
	return j.writeLine(append(data, '\n'), true)
}

// ledgerBufs pools the buffers ledger lines are encoded into, so a
// warm ledger encodes into storage it already has.
var ledgerBufs = sync.Pool{New: func() any { return new([]byte) }}

// ledgerLine encodes a settled day's audit-ledger entry, newline
// included, into a pooled buffer. The caller writes the line from the
// buffer (Journal.writeLine copies what it retains) and puts the buffer
// back in ledgerBufs, so the line is never copied out.
func ledgerLine(e *mechanism.LedgerEntry) (*[]byte, error) {
	buf := ledgerBufs.Get().(*[]byte)
	line, err := e.AppendJSON((*buf)[:0])
	if err != nil {
		ledgerBufs.Put(buf)
		return nil, fmt.Errorf("netproto: encode ledger entry: %w", err)
	}
	*buf = append(line, '\n')
	return buf, nil
}

// writeLine writes line, which ends in its newline, with one Write and
// retains it, less the newline, in the tail ring: a kept line's bytes
// by alias, a lent line's by a copy into its slot's own storage (see
// Journal).
func (j *Journal) writeLine(line []byte, kept bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("netproto: append journal record: %w", err)
	}
	if j.tail == nil {
		j.tail = make([]tailSlot, journalTailCap)
	}
	n := len(line) - 1
	s := &j.tail[j.next]
	if kept {
		s.line = line[:n:n]
	} else {
		if cap(s.own) < n {
			s.own = bytes.Clone(line[:n]) // capacity: the allocator's block for n bytes
		} else {
			s.own = append(s.own[:0], line[:n]...)
		}
		s.line = s.own
	}
	j.next = (j.next + 1) % journalTailCap
	if j.len < journalTailCap {
		j.len++
	}
	if rec := obs.DefaultRecorder(); rec.Enabled() {
		rec.Record(obs.Event{Kind: obs.EventLedger, Shard: -1, Bytes: n})
	}
	return nil
}

// LedgerTail returns copies of the last n journal lines, oldest first,
// as raw JSON — the obs.LedgerTailer contract behind
// /api/v1/ledger/tail. At most journalTailCap lines are retained; asking
// for more returns what the ring holds.
func (j *Journal) LedgerTail(n int) []json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n > j.len {
		n = j.len
	}
	if n <= 0 {
		return nil
	}
	out := make([]json.RawMessage, n)
	start := j.next - n
	if start < 0 {
		start += journalTailCap
	}
	for i := range out {
		out[i] = bytes.Clone(j.tail[(start+i)%journalTailCap].line)
	}
	return out
}
