package settle

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
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

// settleOnce runs one machine on scratch over in, gathering the phase
// inputs into the scratch's buffers as a driver does, and renders its
// outcome: the record and ledger entry JSON, or the error that failed
// the day.
func settleOnce(t *testing.T, in dayInput, scratch *Scratch) (settled []byte, out *Outcome) {
	t.Helper()
	quad := pricing.Quadratic{Sigma: pricing.DefaultSigma}
	m := New(Config{Scheduler: &sched.Greedy{Pricer: quad, Rating: 2}, Pricer: quad,
		Mechanism: mechanism.DefaultConfig(), Rating: 2}, 1, "fuzz", scratch)
	reports, absent := scratch.Preferences(len(in.reports) + len(in.absent))
	reports, absent = append(reports, in.reports...), append(absent, in.absent...)
	if _, err := m.Allocate(reports, absent); err != nil {
		return []byte("allocate: " + err.Error()), nil
	}
	consumptions := append(scratch.Consumptions(len(in.consumptions))[:0], in.consumptions...)
	var dark []bool
	if in.dark != nil {
		dark = append(scratch.Dark(len(in.dark))[:0], in.dark...)
	}
	o, err := m.Settle(consumptions, dark)
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

// dirtyScratch returns a scratch that has settled two valid days unlike
// any fuzzed one: twelve households with absentees, dark reporters and
// defectors, then two, so its buffers hold stale entries both within
// and past a fuzzed day's length.
func dirtyScratch(t *testing.T) *Scratch {
	t.Helper()
	scratch := new(Scratch)
	for _, n := range []int{12, 2} {
		var in dayInput
		in.dark = make([]bool, n)
		for i := 0; i < n; i++ {
			id := core.HouseholdID(3 * i)
			begin := i % 7
			in.reports = append(in.reports, core.Report{ID: id, Pref: core.MustPreference(begin, begin+4+i%5, 1+i%3)})
			in.absent = append(in.absent, id+1)
			in.consumptions = append(in.consumptions, core.Consumption{ID: id, Interval: in.reports[i].Pref.IntervalAt(0)})
			in.dark[i] = i%3 == 1
		}
		if _, out := settleOnce(t, in, scratch); out == nil {
			t.Fatalf("the %d-household dirtying day failed to settle", n)
		}
	}
	return scratch
}

// FuzzDayMachine feeds the day machine arbitrary phase inputs — invalid
// windows, off-day and wrong-length consumptions, duplicate and
// unsorted IDs, misaligned slices — and requires that it never panics,
// that every day it settles keeps Theorem 1 (Σp = ξ·κ(ω) within the
// 1e-9 relative band) and audits clean, and that the same input settles
// to the same bytes twice: on a fresh scratch and on one that settled
// other days before (see dirtyScratch), whose outcomes must also be
// deeply equal and encode to the same ledger line.
func FuzzDayMachine(f *testing.F) {
	// Per report: ID step, window begin, width, duration; then the
	// absentee count and IDs, the flags byte (1: dark set, 2: drop the
	// last consumption) and per consumption a mode and an offset.
	f.Add([]byte{3, 2, 18, 6, 2, 2, 20, 4, 2, 2, 19, 7, 3, 0, 0, 1, 0, 1, 1, 1, 0})
	f.Add([]byte{2, 2, 18, 4, 2, 2, 18, 4, 2, 0, 0, 1, 0, 5, 34, 2})                    // an off-day consumption
	f.Add([]byte{3, 2, 18, 6, 2, 1, 20, 4, 2, 2, 19, 7, 3, 0, 0, 1, 0, 1, 0, 1, 0})     // a duplicate ID
	f.Add([]byte{3, 2, 18, 6, 2, 2, 20, 4, 2, 2, 19, 7, 3, 1, 15, 1, 3, 0, 1, 1, 1, 0}) // an absentee and a dark reporter
	f.Fuzz(func(t *testing.T, data []byte) {
		first, out := settleOnce(t, decodeDay(data), new(Scratch))
		second, reused := settleOnce(t, decodeDay(data), dirtyScratch(t))
		if !bytes.Equal(first, second) {
			t.Fatalf("same input settled differently on a reused scratch:\n%s\n%s", first, second)
		}
		if out == nil {
			return
		}
		if !reflect.DeepEqual(out, reused) {
			t.Fatalf("outcomes differ on a reused scratch:\n%+v\n%+v", out, reused)
		}
		line := appendLedgerLine(t, out)
		if again := appendLedgerLine(t, reused); !bytes.Equal(line, again) {
			t.Fatalf("ledger lines differ on a reused scratch:\n%s\n%s", line, again)
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

// appendLedgerLine encodes out's ledger entry as a ledger line.
func appendLedgerLine(t *testing.T, out *Outcome) []byte {
	t.Helper()
	e := out.LedgerEntry()
	line, err := e.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return line
}
