package settle

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/pricing"
	"enki/internal/sched"
)

// dayInput is one fuzzed day: the machine's phase inputs exactly as a
// driver would hand them over, valid or not.
type dayInput struct {
	reports      []core.Report
	absent       []core.HouseholdID
	consumptions []core.Consumption
	dark         []bool
}

// byteReader doles out fuzz bytes, yielding zeros once they run out.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeDay turns fuzz bytes into phase inputs. IDs step up from the
// previous one by a byte-chosen amount that may be zero or negative
// (duplicates, unsorted); windows, durations and consumed intervals
// range past both ends of the day; a consumption's slot may name
// another household.
func decodeDay(data []byte) dayInput {
	r := byteReader(data)
	var in dayInput
	n := r.next() % 9
	id := 0
	for i := 0; i < n; i++ {
		id += r.next()%4 - 1
		begin := r.next()%30 - 2
		in.reports = append(in.reports, core.Report{
			ID:   core.HouseholdID(id),
			Pref: core.Preference{Window: core.Interval{Begin: begin, End: begin + r.next()%12}, Duration: r.next() % 5},
		})
	}
	for i, k := 0, r.next()%3; i < k; i++ {
		in.absent = append(in.absent, core.HouseholdID(r.next()%16))
	}
	flags := r.next()
	if flags&1 != 0 {
		in.dark = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		c := core.Consumption{ID: in.reports[i].ID}
		mode := r.next()
		if mode%7 == 0 {
			c.ID++ // the slot of another household
		}
		if mode%5 == 0 {
			begin := r.next()%36 - 4
			c.Interval = core.Interval{Begin: begin, End: begin + r.next()%6}
		} else {
			c.Interval = in.reports[i].Pref.IntervalAt(r.next() % 3)
		}
		in.consumptions = append(in.consumptions, c)
		if in.dark != nil {
			in.dark[i] = mode%3 == 0
		}
	}
	if flags&2 != 0 && n > 0 {
		in.consumptions = in.consumptions[:n-1] // misaligned with the reports
	}
	return in
}

// settleOnce runs one fresh machine over in and renders its outcome:
// the record and ledger entry JSON, or the error that failed the day.
func settleOnce(t *testing.T, in dayInput) (settled []byte, out *Outcome) {
	t.Helper()
	quad := pricing.Quadratic{Sigma: pricing.DefaultSigma}
	m := New(Config{Scheduler: &sched.Greedy{Pricer: quad, Rating: 2}, Pricer: quad,
		Mechanism: mechanism.DefaultConfig(), Rating: 2}, 1, "fuzz")
	if _, err := m.Allocate(in.reports, in.absent); err != nil {
		return []byte("allocate: " + err.Error()), nil
	}
	o, err := m.Settle(in.consumptions, in.dark)
	if err != nil {
		return []byte("settle: " + err.Error()), nil
	}
	record, err := json.Marshal(o.Record)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := json.Marshal(o.LedgerEntry())
	if err != nil {
		t.Fatal(err)
	}
	return append(append(record, '\n'), entry...), &o
}

// FuzzDayMachine feeds the day machine arbitrary phase inputs — invalid
// windows, off-day and wrong-length consumptions, duplicate and
// unsorted IDs, misaligned slices — and requires that it never panics,
// that every day it settles keeps Theorem 1 (Σp = ξ·κ(ω) within the
// 1e-9 relative band) and audits clean, and that the same input settles
// to the same bytes twice.
func FuzzDayMachine(f *testing.F) {
	// Per report: ID step, window begin, width, duration; then the
	// absentee count and IDs, the flags byte (1: dark set, 2: drop the
	// last consumption) and per consumption a mode and an offset.
	f.Add([]byte{3, 2, 18, 6, 2, 2, 20, 4, 2, 2, 19, 7, 3, 0, 0, 1, 0, 1, 1, 1, 0})
	f.Add([]byte{2, 2, 18, 4, 2, 2, 18, 4, 2, 0, 0, 1, 0, 5, 34, 2})                    // an off-day consumption
	f.Add([]byte{3, 2, 18, 6, 2, 1, 20, 4, 2, 2, 19, 7, 3, 0, 0, 1, 0, 1, 0, 1, 0})     // a duplicate ID
	f.Add([]byte{3, 2, 18, 6, 2, 2, 20, 4, 2, 2, 19, 7, 3, 1, 15, 1, 3, 0, 1, 1, 1, 0}) // an absentee and a dark reporter
	f.Fuzz(func(t *testing.T, data []byte) {
		first, out := settleOnce(t, decodeDay(data))
		if second, _ := settleOnce(t, decodeDay(data)); !bytes.Equal(first, second) {
			t.Fatalf("same input settled differently:\n%s\n%s", first, second)
		}
		if out == nil {
			return
		}
		r := out.Record
		var revenue float64
		for _, p := range r.Payments {
			revenue += p
		}
		want := r.Cost * mechanism.DefaultXi
		if math.Abs(revenue-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("Theorem 1: Σp = %g, ξ·κ = %g", revenue, want)
		}
		if bad := out.LedgerEntry().Audit(); len(bad) != 0 {
			t.Fatalf("settled day audits dirty: %v\n%s", bad, first)
		}
	})
}
