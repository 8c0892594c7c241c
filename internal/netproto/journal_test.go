package netproto

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
)

func TestJournalRoundTrip(t *testing.T) {
	c := newTestCenter(t)
	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
	}
	for i, typ := range types {
		a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	if err := waitForAgents(c, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	journal := NewJournal(&buf)
	var wantCost, wantRevenue float64
	for day := 1; day <= 3; day++ {
		record, err := c.RunDayContext(context.Background(), day)
		if err != nil {
			t.Fatal(err)
		}
		if err := journal.Append(record); err != nil {
			t.Fatal(err)
		}
		wantCost += record.Cost
		for _, p := range record.Payments {
			wantRevenue += p
		}
	}

	records, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("read %d records, want 3", len(records))
	}
	for i, rec := range records {
		if rec.Day != i+1 {
			t.Errorf("record %d has day %d", i, rec.Day)
		}
		if len(rec.Reports) != 2 || len(rec.Payments) != 2 {
			t.Errorf("record %d incomplete: %d reports, %d payments",
				i, len(rec.Reports), len(rec.Payments))
		}
	}

	rep := ReplayJournal(records)
	if rep.Days != 3 {
		t.Errorf("replay days = %d, want 3", rep.Days)
	}
	if math.Abs(rep.TotalCost-wantCost) > 1e-9 {
		t.Errorf("replay cost %g, want %g", rep.TotalCost, wantCost)
	}
	if math.Abs(rep.Revenue-wantRevenue) > 1e-9 {
		t.Errorf("replay revenue %g, want %g", rep.Revenue, wantRevenue)
	}
	if len(rep.ByID) != 2 {
		t.Errorf("replay tracked %d households, want 2", len(rep.ByID))
	}
	for id, paid := range rep.ByID {
		if paid <= 0 {
			t.Errorf("household %d cumulative payment %g", id, paid)
		}
	}
}

func TestJournalAppendNil(t *testing.T) {
	j := NewJournal(&bytes.Buffer{})
	if err := j.Append(nil); err == nil {
		t.Error("nil record should be rejected")
	}
}

func TestReadJournalGarbage(t *testing.T) {
	// A lone corrupt line is a trailing partial record: skipped, and an
	// empty (but replayable) history remains.
	records, err := ReadJournal(strings.NewReader("{bad json}\n"))
	if err != nil {
		t.Errorf("lone corrupt trailing line should be skipped, got %v", err)
	}
	if len(records) != 0 {
		t.Errorf("corrupt-only journal yielded %d records", len(records))
	}
	// Corruption followed by a valid record is real damage, not a
	// crash-truncated tail: the whole read fails.
	valid := `{"day":1,"reports":[],"assignments":[],"consumptions":[],"payments":[],"flexibility":[],"defection":[],"socialCost":[],"cost":0,"peak":0}`
	if _, err := ReadJournal(strings.NewReader("{bad json}\n" + valid + "\n")); err == nil {
		t.Error("mid-journal corruption should be rejected")
	}
	records, err = ReadJournal(strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Errorf("blank journal yielded %d records", len(records))
	}
}

// TestReadJournalTruncatedTail simulates a crash during append: a valid
// history followed by a half-written final line. The replay must return
// the intact records and skip the partial one.
func TestReadJournalTruncatedTail(t *testing.T) {
	c := newTestCenter(t)
	for i, typ := range []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
	} {
		a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	if err := waitForAgents(c, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	journal := NewJournal(&buf)
	for day := 1; day <= 2; day++ {
		record, err := c.RunDayContext(context.Background(), day)
		if err != nil {
			t.Fatal(err)
		}
		if err := journal.Append(record); err != nil {
			t.Fatal(err)
		}
	}
	intact := buf.String()

	for _, tail := range []string{
		`{"day":3,"repor`,      // cut mid-key, no newline
		`{"day":3,"reports":[`, // cut mid-array with newline
		"\n" + `{"day"`,        // blank line then a stub
	} {
		records, err := ReadJournal(strings.NewReader(intact + tail))
		if err != nil {
			t.Errorf("tail %q: replay failed: %v", tail, err)
			continue
		}
		if len(records) != 2 {
			t.Errorf("tail %q: replayed %d records, want 2", tail, len(records))
			continue
		}
		rep := ReplayJournal(records)
		if rep.Days != 2 || len(rep.ByID) != 2 {
			t.Errorf("tail %q: replay summary %+v malformed", tail, rep)
		}
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
