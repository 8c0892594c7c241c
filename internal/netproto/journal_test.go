package netproto

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"enki/internal/mechanism"
)

// settledLedger settles days days of a two-household, one-shard
// cluster and returns the audit ledger it wrote, one line per day.
func settledLedger(t *testing.T, days int) []byte {
	t.Helper()
	var ledger bytes.Buffer
	cluster := buildCluster(t, 2, WithShards(1), WithLedger(NewJournal(&ledger)))
	for day := 1; day <= days; day++ {
		if _, err := cluster.ClusterDay(context.Background(), day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	return ledger.Bytes()
}

// TestReadLedgerGarbage: a lone corrupt line is a crash-truncated tail,
// skipped so an empty (but readable) history remains; corruption
// followed by a valid entry is real damage, and the whole read fails;
// blank lines are ignored.
func TestReadLedgerGarbage(t *testing.T) {
	entries, err := mechanism.ReadLedger(strings.NewReader("{bad json}\n"))
	if err != nil {
		t.Errorf("lone corrupt trailing line should be skipped, got %v", err)
	}
	if len(entries) != 0 {
		t.Errorf("corrupt-only ledger yielded %d entries", len(entries))
	}
	valid := settledLedger(t, 1)
	if _, err := mechanism.ReadLedger(strings.NewReader("{bad json}\n" + string(valid))); err == nil {
		t.Error("mid-ledger corruption should be rejected")
	}
	entries, err = mechanism.ReadLedger(strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("blank ledger yielded %d entries", len(entries))
	}
}

// TestReadLedgerTruncatedTail simulates a crash during append: two
// settled days followed by the third day's line cut short. The read
// must return the intact entries, which still audit clean, and skip
// the partial one.
func TestReadLedgerTruncatedTail(t *testing.T) {
	lines := bytes.SplitAfter(settledLedger(t, 3), []byte("\n"))
	intact, third := string(lines[0])+string(lines[1]), string(lines[2])
	cut := func(after string) string {
		i := strings.Index(third, after)
		if i < 0 {
			t.Fatalf("the ledger line has no %s", after)
		}
		return third[:i+len(after)]
	}
	for _, tail := range []string{
		cut(`"trace`),                // cut mid-key, no newline
		cut(`"households":[`) + "\n", // cut mid-array with newline
		"\n" + cut(`{"schema"`),      // blank line then a stub
	} {
		entries, err := mechanism.ReadLedger(strings.NewReader(intact + tail))
		if err != nil {
			t.Errorf("tail %q: read failed: %v", tail, err)
			continue
		}
		if len(entries) != 2 {
			t.Errorf("tail %q: read %d entries, want 2", tail, len(entries))
			continue
		}
		for i, e := range entries {
			if e.Day != i+1 || len(e.Households) != 2 {
				t.Errorf("tail %q: entry %d is day %d with %d households, want day %d with 2", tail, i, e.Day, len(e.Households), i+1)
			}
			if bad := e.Audit(); len(bad) != 0 {
				t.Errorf("tail %q: day %d audit: %v", tail, e.Day, bad)
			}
		}
	}
}

// TestReadLedgerLongLines: a ledger line holds a whole neighbourhood's
// day, about 325 B per household, so two days of a one-shard,
// 4,000-household cluster write two lines over 1 MiB each. They must
// read back whole and audit clean; a long final line cut by a crash is
// still forgiven, and a long corrupt line before a valid one is still
// an error.
func TestReadLedgerLongLines(t *testing.T) {
	const households = 4000
	var ledger bytes.Buffer
	cluster := buildCluster(t, households, WithShards(1), WithLedger(NewJournal(&ledger)))
	for day := 1; day <= 2; day++ {
		if _, err := cluster.ClusterDay(context.Background(), day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	lines := bytes.SplitAfter(ledger.Bytes(), []byte("\n"))
	if len(lines) != 3 || len(lines[0]) <= 1<<20 || len(lines[1]) <= 1<<20 {
		t.Fatalf("ledger of %d bytes in %d pieces, want two lines over 1 MiB", ledger.Len(), len(lines))
	}
	entries, err := mechanism.ReadLedger(bytes.NewReader(ledger.Bytes()))
	if err != nil || len(entries) != 2 {
		t.Fatalf("read %d entries, err %v; want 2", len(entries), err)
	}
	for i, e := range entries {
		if e.Day != i+1 || len(e.Households)+len(e.Absent) != households {
			t.Errorf("entry %d is day %d with %d households and %d absent, want day %d with %d",
				i, e.Day, len(e.Households), len(e.Absent), i+1, households)
		}
		if bad := e.Audit(); len(bad) != 0 {
			t.Errorf("day %d audit: %v", e.Day, bad[0])
		}
	}

	cut := ledger.Bytes()[:len(lines[0])+len(lines[1])/2]
	if entries, err := mechanism.ReadLedger(bytes.NewReader(cut)); err != nil || len(entries) != 1 || entries[0].Day != 1 {
		t.Errorf("cut final line: read %d entries, err %v; want day 1 only", len(entries), err)
	}
	damaged := append(append(bytes.Clone(lines[0][:len(lines[0])/2]), '\n'), lines[1]...)
	if _, err := mechanism.ReadLedger(bytes.NewReader(damaged)); err == nil {
		t.Error("a corrupt long line before a valid one was accepted")
	}
}

// TestJournalLedgerTail pins the tail ring behind /api/v1/ledger/tail:
// it keeps the last journalTailCap lines oldest first, hands out copies,
// copies a lent line into storage of its own, and never writes into a
// kept line's storage.
func TestJournalLedgerTail(t *testing.T) {
	var out bytes.Buffer
	j := NewJournal(&out)
	if got := j.LedgerTail(5); got != nil {
		t.Errorf("empty journal: tail %q, want nil", got)
	}
	lineOf := func(i int) string { return fmt.Sprintf(`{"line":%d}`, i) }
	// One lent buffer for every line, as a ledger stream reuses its own.
	buf := make([]byte, 0, 64)
	written := 0
	lend := func() {
		buf = append(append(buf[:0], lineOf(written)...), '\n')
		if err := j.writeLine(buf, false); err != nil {
			t.Fatal(err)
		}
		written++
	}
	// tailOf checks LedgerTail(n) against the lines numbered from first.
	tailOf := func(n, first, count int) {
		t.Helper()
		got := j.LedgerTail(n)
		if len(got) != count {
			t.Fatalf("LedgerTail(%d) after %d lines returned %d lines, want %d", n, written, len(got), count)
		}
		for i, line := range got {
			if want := lineOf(first + i); string(line) != want {
				t.Fatalf("LedgerTail(%d) after %d lines: line %d is %s, want %s", n, written, i, line, want)
			}
		}
	}

	for range 10 {
		lend()
	}
	tailOf(3, 7, 3)
	tailOf(10, 0, 10)
	tailOf(1000, 0, 10) // n above the retained count returns what is held
	for _, n := range []int{0, -1} {
		if got := j.LedgerTail(n); got != nil {
			t.Errorf("LedgerTail(%d) = %q, want nil", n, got)
		}
	}
	copy(buf, "xxxxxxxxxx") // the lender reuses its buffer
	tailOf(1, 9, 1)

	held := j.LedgerTail(3)
	for range 300 {
		lend()
	}
	for i, line := range held {
		if want := lineOf(7 + i); string(line) != want {
			t.Errorf("a returned line changed after 300 appends: %s, want %s", line, want)
		}
	}
	tailOf(journalTailCap, written-journalTailCap, journalTailCap) // wrapped around
	tailOf(journalTailCap+1, written-journalTailCap, journalTailCap)

	// A kept line is aliased with room to spare, so a ring that reused
	// its storage for the lent line that later lands in its slot would
	// overwrite it.
	keptLine := lineOf(written)
	kept := make([]byte, 0, 256)
	kept = append(append(kept, keptLine...), '\n')
	if err := j.writeLine(kept, true); err != nil {
		t.Fatal(err)
	}
	written++
	tailOf(1, written-1, 1)
	for range journalTailCap {
		lend()
	}
	if got := string(kept[:len(keptLine)]); got != keptLine {
		t.Errorf("a lent line was written into a kept line's storage: %s, want %s", got, keptLine)
	}
	tailOf(journalTailCap, written-journalTailCap, journalTailCap)

	want := new(strings.Builder)
	for i := range written {
		want.WriteString(lineOf(i) + "\n")
	}
	if out.String() != want.String() {
		t.Errorf("the journal wrote %d bytes, want the %d lines in order", out.Len(), written)
	}
}
