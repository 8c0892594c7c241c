// Package replica implements the quorum log that replicates the
// settlement center's per-day journal across 2f+1 replicas. Settlement
// is a deterministic state machine (the same committed entries replay
// to byte-identical ledgers), so the log stays deliberately simple: a
// leader appends entries, followers acknowledge them, and an entry
// commits once a majority holds it. Leader election is deterministic —
// the lowest live replica ID leads — so a failover never needs votes,
// only a log sync from the surviving majority.
package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// Entry kinds, in the order a settlement day produces them: membership
// changes as agents register, one phase boundary per collection round,
// and the day's audit-ledger entry at settle.
const (
	// KindMember records one household registration (ID, session token,
	// epoch), so a new leader reconstructs the membership and accepts
	// the session tokens the old leader issued.
	KindMember = "member"
	// KindPhase records a completed collection phase: the reports (and
	// absentees) after the preference round, the consumptions (and
	// substitutions) after the consumption round.
	KindPhase = "phase"
	// KindDay records a settled day: its marshaled audit-ledger entry,
	// the one line the day adds to every ledger. A replica's committed
	// day entries are its ledger, and a new leader that holds a day's
	// entry replays the day from its committed phases without
	// committing it again.
	KindDay = "day"
)

// Entry is one replicated log record. Index is 1-based and dense; Term
// is the leadership term that appended the entry. Data is the kind-
// specific payload, kept as raw JSON so every replica holds the
// leader's exact bytes.
type Entry struct {
	Term  uint64          `json:"term"`
	Index uint64          `json:"index"`
	Kind  string          `json:"kind"`
	Day   int             `json:"day,omitempty"`
	Phase string          `json:"phase,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Sentinel errors of the quorum log.
var (
	// ErrNotLeader rejects an append from a deposed leader: the
	// follower has seen a higher term.
	ErrNotLeader = errors.New("replica: not leader")
	// ErrGap rejects an out-of-order insert: the follower is missing
	// entries before the offered index and needs a suffix resend.
	ErrGap = errors.New("replica: log gap")
	// ErrConflict rejects an insert that would rewrite a committed
	// entry with different content.
	ErrConflict = errors.New("replica: conflicts with committed entry")
)

// Log is one replica's copy of the quorum log: a dense slice of entries
// plus a commit watermark. Entries above the watermark are provisional —
// a new leader may re-replicate them — while the committed prefix is
// immutable and identical on every replica that holds it.
type Log struct {
	mu      sync.Mutex
	entries []Entry
	commit  uint64 // highest committed index
	term    uint64 // highest term observed
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Term returns the highest leadership term this log has observed.
func (l *Log) Term() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

// ObserveTerm raises the log's term watermark. It reports whether the
// offered term is current (>= every term seen before); a false return
// means the sender has been deposed.
func (l *Log) ObserveTerm(term uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if term < l.term {
		return false
	}
	l.term = term
	return true
}

// LastIndex returns the highest index present (0 when empty).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.entries))
}

// Commit returns the commit watermark.
func (l *Log) Commit() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commit
}

// Append appends an entry at the next index under the given term (the
// leader-side write). It returns the assigned entry.
func (l *Log) Append(term, day uint64, kind, phase string, data json.RawMessage) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if term > l.term {
		l.term = term
	}
	e := Entry{Term: term, Index: uint64(len(l.entries)) + 1, Kind: kind, Day: int(day), Phase: phase, Data: data}
	l.entries = append(l.entries, e)
	return e
}

// Insert places a replicated entry at its index (the follower-side
// write). Inserting at the next index appends; re-inserting an existing
// provisional index overwrites it (a new leader re-replicating the
// uncommitted tail); a gap returns ErrGap so the leader can resend the
// missing suffix; rewriting a committed entry with different content
// returns ErrConflict.
func (l *Log) Insert(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case e.Index == uint64(len(l.entries))+1:
		l.entries = append(l.entries, e)
	case e.Index >= 1 && e.Index <= uint64(len(l.entries)):
		if e.Index <= l.commit {
			have := l.entries[e.Index-1]
			if have.Kind != e.Kind || have.Day != e.Day || have.Phase != e.Phase || !bytes.Equal(have.Data, e.Data) {
				return fmt.Errorf("index %d: %w", e.Index, ErrConflict)
			}
			return nil // idempotent re-delivery of a committed entry
		}
		l.entries[e.Index-1] = e
	default:
		return fmt.Errorf("index %d after %d: %w", e.Index, len(l.entries), ErrGap)
	}
	if e.Term > l.term {
		l.term = e.Term
	}
	return nil
}

// CommitTo raises the commit watermark to index (capped at the last
// held entry) and returns the entries that just became committed, in
// order — the caller applies them to its local state exactly once.
func (l *Log) CommitTo(index uint64) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index > uint64(len(l.entries)) {
		index = uint64(len(l.entries))
	}
	if index <= l.commit {
		return nil
	}
	newly := make([]Entry, index-l.commit)
	copy(newly, l.entries[l.commit:index])
	l.commit = index
	return newly
}

// Entries returns a copy of the whole log, committed prefix first.
func (l *Log) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Suffix returns a copy of the entries with index > after.
func (l *Log) Suffix(after uint64) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after >= uint64(len(l.entries)) {
		return nil
	}
	out := make([]Entry, uint64(len(l.entries))-after)
	copy(out, l.entries[after:])
	return out
}

// Adopt replaces the provisional tail with the given entries, keeping
// the committed prefix (a new leader adopting the longest surviving
// log). Entries at or below the commit watermark are ignored.
func (l *Log) Adopt(entries []Entry) error {
	for _, e := range entries {
		if err := l.Insert(e); err != nil {
			return err
		}
	}
	return nil
}

// Majority returns the quorum size for n replicas: floor(n/2)+1.
func Majority(n int) int { return n/2 + 1 }

// Elect returns the deterministic leader among the live replica IDs —
// the lowest — or -1 when none are alive. With 2f+1 replicas and at
// most f failures every surviving replica computes the same answer, so
// no vote is needed.
func Elect(live []int) int {
	leader := -1
	for _, id := range live {
		if leader < 0 || id < leader {
			leader = id
		}
	}
	return leader
}
