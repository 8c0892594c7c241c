package netproto

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"enki/internal/obs"
	"enki/internal/settle"
)

// journalTailCap bounds the in-memory ring of recent lines the operator
// API's /api/v1/ledger/tail serves without re-reading the file. It is
// the same bound the HTTP surface enforces with a 400 on overlarge n.
const journalTailCap = obs.MaxLedgerTail

// Journal persists JSON Lines — one value per line — so a
// neighborhood's history survives restarts and can be replayed for
// billing audits: the audit ledger (one mechanism.LedgerEntry line per
// settled day, see WithLedger) or DayRecords written with Append. Writes
// are serialized; a Journal may be shared by a Center and ad-hoc
// writers. The most recent lines are retained in a bounded ring, which
// is what makes a Journal an obs.LedgerTailer.
type Journal struct {
	mu   sync.Mutex
	w    io.Writer
	tail []json.RawMessage // ring of the last journalTailCap lines
	next int               // ring write position
	len  int               // lines retained (≤ journalTailCap)
}

// NewJournal wraps a writer (typically an os.File opened with append).
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// AppendValue writes any JSON-marshalable record as one line, encoded by
// json.Marshal, with the same locking and crash-recovery semantics as
// every other line. Day records (Append) go through it; the audit
// ledger does not: a center, a replica set and a cluster's shard
// workers encode each ledger entry with mechanism.LedgerEntry.AppendJSON,
// which writes the bytes json.Marshal would, and append the line
// directly.
func (j *Journal) AppendValue(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("netproto: encode journal record: %w", err)
	}
	return j.appendLine(data)
}

// ledgerScratch holds the buffers ledgerLine encodes into, so a line's
// growth happens once per worker rather than once per line.
var ledgerScratch = sync.Pool{New: func() any { return new([]byte) }}

// ledgerLine encodes a settled day's audit-ledger entry as one journal
// line. The line is copied out of a pooled scratch buffer at its exact
// length plus one spare byte of capacity, so the newline appendLine adds
// never copies it.
func ledgerLine(out *settle.Outcome) ([]byte, error) {
	e := out.LedgerEntry()
	scratch := ledgerScratch.Get().(*[]byte)
	defer ledgerScratch.Put(scratch)
	enc, err := e.AppendJSON((*scratch)[:0])
	if err != nil {
		return nil, fmt.Errorf("netproto: encode ledger entry: %w", err)
	}
	*scratch = enc
	return append(make([]byte, 0, len(enc)+1), enc...), nil
}

// appendLine writes one encoded JSON value as a line.
func (j *Journal) appendLine(data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("netproto: append journal record: %w", err)
	}
	if j.tail == nil {
		j.tail = make([]json.RawMessage, journalTailCap)
	}
	j.tail[j.next] = json.RawMessage(data)
	j.next = (j.next + 1) % journalTailCap
	if j.len < journalTailCap {
		j.len++
	}
	if rec := obs.DefaultRecorder(); rec.Enabled() {
		rec.Record(obs.Event{Kind: obs.EventLedger, Shard: -1, Bytes: len(data)})
	}
	return nil
}

// LedgerTail returns the last n journal lines, oldest first, as raw
// JSON — the obs.LedgerTailer contract behind /api/v1/ledger/tail. At
// most journalTailCap lines are retained; asking for more returns what
// the ring holds.
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
	for i := 0; i < n; i++ {
		out[i] = j.tail[(start+i)%journalTailCap]
	}
	return out
}

// Append writes one day record as a JSON line.
func (j *Journal) Append(record *DayRecord) error {
	if record == nil {
		return fmt.Errorf("netproto: nil day record")
	}
	return j.AppendValue(record)
}

// ReadJournal loads every day record from a JSONL stream, in order. A
// corrupt or truncated final line — the signature of a crash during
// append — is skipped so the intact history stays replayable;
// corruption followed by further valid records is still an error (see
// obs.ReadJSONL).
func ReadJournal(r io.Reader) ([]DayRecord, error) {
	return obs.ReadJSONL[DayRecord](r, "netproto: journal")
}

// Replay summarizes a journal: total cost, total revenue, and the
// per-household cumulative payments — the billing-audit view.
type Replay struct {
	Days      int
	TotalCost float64
	Revenue   float64
	ByID      map[int64]float64 // cumulative payment per household ID
}

// ReplayJournal folds a journal into its billing summary.
func ReplayJournal(records []DayRecord) Replay {
	rep := Replay{ByID: make(map[int64]float64)}
	for _, rec := range records {
		rep.Days++
		rep.TotalCost += rec.Cost
		for i, r := range rec.Reports {
			rep.Revenue += rec.Payments[i]
			rep.ByID[int64(r.ID)] += rec.Payments[i]
		}
	}
	return rep
}
