package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"testing"
)

// TestLogAppendAssignsDenseIndices: leader appends take consecutive
// 1-based indices and stamp the current term.
func TestLogAppendAssignsDenseIndices(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 3; i++ {
		e := l.Append(1, uint64(i), KindPhase, "preference", json.RawMessage(`{}`))
		if e.Index != uint64(i) {
			t.Fatalf("append %d got index %d", i, e.Index)
		}
		if e.Term != 1 {
			t.Fatalf("append %d got term %d", i, e.Term)
		}
	}
	if l.LastIndex() != 3 {
		t.Errorf("last=%d, want 3", l.LastIndex())
	}
	if l.Commit() != 0 {
		t.Errorf("appends must not commit: watermark %d", l.Commit())
	}
}

// TestLogInsertOrdering: a follower inserts in order, rejects gaps with
// ErrGap, and accepts a provisional overwrite from a new leader.
func TestLogInsertOrdering(t *testing.T) {
	l := NewLog()
	if err := l.Insert(Entry{Term: 1, Index: 1, Kind: KindMember}); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert(Entry{Term: 1, Index: 3, Kind: KindMember}); !errors.Is(err, ErrGap) {
		t.Fatalf("gap insert: %v, want ErrGap", err)
	}
	if err := l.Insert(Entry{Term: 1, Index: 2, Kind: KindPhase, Phase: "preference"}); err != nil {
		t.Fatal(err)
	}
	// A new leader (term 2) re-replicates the provisional index 2.
	if err := l.Insert(Entry{Term: 2, Index: 2, Kind: KindPhase, Phase: "preference"}); err != nil {
		t.Fatalf("provisional overwrite: %v", err)
	}
	if l.Term() != 2 {
		t.Errorf("term %d, want 2 after observing a term-2 entry", l.Term())
	}
}

// TestLogCommitOrdering: CommitTo returns exactly the newly committed
// entries, in order, once each — the apply-exactly-once contract — and
// a committed entry can no longer be rewritten.
func TestLogCommitOrdering(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 4; i++ {
		l.Append(1, uint64(i), KindDay, "", json.RawMessage(`{"day":1}`))
	}
	newly := l.CommitTo(2)
	if len(newly) != 2 || newly[0].Index != 1 || newly[1].Index != 2 {
		t.Fatalf("CommitTo(2) returned %+v, want entries 1,2", newly)
	}
	if again := l.CommitTo(2); len(again) != 0 {
		t.Fatalf("re-commit returned %+v, want none (idempotent)", again)
	}
	newly = l.CommitTo(10) // capped at the held entries
	if len(newly) != 2 || newly[0].Index != 3 || newly[1].Index != 4 {
		t.Fatalf("CommitTo(10) returned %+v, want entries 3,4", newly)
	}
	if l.Commit() != 4 {
		t.Errorf("commit watermark %d, want 4", l.Commit())
	}
	// Rewriting a committed entry with different content conflicts;
	// re-delivering the identical entry is absorbed.
	if err := l.Insert(Entry{Term: 2, Index: 1, Kind: KindDay, Data: json.RawMessage(`{"day":9}`)}); !errors.Is(err, ErrConflict) {
		t.Fatalf("committed rewrite: %v, want ErrConflict", err)
	}
	if err := l.Insert(Entry{Term: 1, Index: 1, Kind: KindDay, Day: 1, Data: json.RawMessage(`{"day":1}`)}); err != nil {
		t.Fatalf("identical re-delivery: %v", err)
	}
}

// TestLogObserveTermDeposesOldLeader: once a higher term is observed,
// the old term is rejected — the ErrNotLeader trigger on the wire.
func TestLogObserveTermDeposesOldLeader(t *testing.T) {
	l := NewLog()
	if !l.ObserveTerm(3) {
		t.Fatal("first term observation rejected")
	}
	if l.ObserveTerm(2) {
		t.Fatal("stale term accepted after term 3")
	}
	if !l.ObserveTerm(3) {
		t.Fatal("current term rejected")
	}
}

// TestElectLowestLive: deterministic election picks the lowest live ID,
// and a quorum is a strict majority, floor(n/2)+1.
func TestElectLowestLive(t *testing.T) {
	if got := Elect([]int{2, 1, 4}); got != 1 {
		t.Errorf("Elect = %d, want 1", got)
	}
	if got := Elect(nil); got != -1 {
		t.Errorf("Elect(none) = %d, want -1", got)
	}
	if Majority(3) != 2 || Majority(5) != 3 || Majority(1) != 1 {
		t.Errorf("Majority: got %d/%d/%d for n=3/5/1", Majority(3), Majority(5), Majority(1))
	}
}

// TestSuffixAndAdopt: Suffix returns the entries after a watermark and
// Adopt folds a surviving log's tail into a new leader's copy.
func TestSuffixAndAdopt(t *testing.T) {
	donor := NewLog()
	for i := 1; i <= 3; i++ {
		donor.Append(1, 1, KindPhase, "consumption", nil)
	}
	donor.CommitTo(1)

	heir := NewLog()
	heir.Append(1, 1, KindPhase, "consumption", nil)
	heir.CommitTo(1)
	if err := heir.Adopt(donor.Suffix(heir.LastIndex())); err != nil {
		t.Fatal(err)
	}
	if heir.LastIndex() != 3 {
		t.Errorf("adopted log holds %d entries, want 3", heir.LastIndex())
	}
	if heir.Commit() != 1 {
		t.Errorf("adopt moved the commit watermark to %d", heir.Commit())
	}
}

// TestWireRoundTrip: a peer message survives the length-prefixed JSON
// framing over a real socket pair.
func TestWireRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	want := &Message{Kind: MsgAppend, Term: 2, From: 0, Commit: 7,
		Entry: &Entry{Term: 2, Index: 8, Kind: KindDay, Day: 3, Data: json.RawMessage(`{"x":1}`)}}
	go func() { _ = WriteMessage(client, want) }()
	got, err := ReadMessage(server)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.Term != want.Term || got.Commit != want.Commit {
		t.Fatalf("round trip lost header fields: %+v", got)
	}
	if got.Entry == nil || got.Entry.Index != 8 || !bytes.Equal(got.Entry.Data, want.Entry.Data) {
		t.Fatalf("round trip lost entry: %+v", got.Entry)
	}
}
