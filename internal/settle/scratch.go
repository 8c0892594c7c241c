package settle

import (
	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/sched"
)

// Scratch is the reusable storage of one settlement day: the phase
// inputs a driver gathers (reports, absentees, consumptions, dark
// flags), the scheduler's assignments and working buffers, Settle's
// preference and interval mirrors, the Eq. 4–7 chain's five-score
// array, and the rows of the day's ledger entry (LedgerEntry). A driver
// that settles day after day on one scratch settles without allocating
// once its buffers have grown to the largest population.
//
// Ownership contract: a scratch serves one machine at a time, and
// everything a day settled on it returns — the assignments, the
// Outcome's record, notices and ledger entry — aliases it until the
// next New on it. A driver that keeps a record past that point passes a
// nil scratch, which gives the day fresh storage. Every buffer is fully
// overwritten or cleared before it is read, so a scratch that settled
// any earlier day, of any size, settles a day bit-identically to a
// fresh one.
type Scratch struct {
	reports      []core.Report
	absent       []core.HouseholdID
	consumptions []core.Consumption
	dark         []bool
	assignments  []core.Assignment
	prefs        []core.Preference
	ivs          []core.Interval // assigned, then consumed
	scores       []float64
	ledger       []mechanism.LedgerHousehold
	sched        sched.Scratch
}

// Preferences returns empty report and absentee buffers with room for n
// members each, which a driver appends the preference phase into. Every
// member either reports or is absent, so neither outgrows its room. A
// nil scratch returns a fresh report buffer and a nil absentee list.
func (s *Scratch) Preferences(n int) ([]core.Report, []core.HouseholdID) {
	if s == nil {
		return make([]core.Report, 0, n), nil
	}
	s.reports, s.absent = resize(s.reports, n), resize(s.absent, n)
	return s.reports[:0], s.absent[:0]
}

// Consumptions returns n zeroed consumptions, which a driver fills with
// the consumption phase.
func (s *Scratch) Consumptions(n int) []core.Consumption {
	if s == nil {
		return make([]core.Consumption, n)
	}
	s.consumptions = resize(s.consumptions, n)
	clear(s.consumptions)
	return s.consumptions
}

// Dark returns n cleared dark flags, which a driver sets for the
// reporters that went dark.
func (s *Scratch) Dark(n int) []bool {
	if s == nil {
		return make([]bool, n)
	}
	s.dark = resize(s.dark, n)
	clear(s.dark)
	return s.dark
}

// allocate runs the scheduler over reports. Greedy allocates into the
// scratch's scheduler buffers and assignments; any other scheduler, and
// a nil scratch, allocate through Scheduler.Allocate.
func (s *Scratch) allocate(scheduler sched.Scheduler, reports []core.Report) ([]core.Assignment, error) {
	g, ok := scheduler.(*sched.Greedy)
	if s == nil || !ok {
		return scheduler.Allocate(reports)
	}
	assignments, err := g.AllocateInto(&s.sched, s.assignments, reports)
	if err == nil {
		s.assignments = assignments
	}
	return assignments, err
}

// mirrors returns Settle's preference mirror and its assigned and
// consumed intervals, n entries each, plus the chain's score array.
func (s *Scratch) mirrors(n int) (prefs []core.Preference, assigned, consumed []core.Interval, scores []float64) {
	if s == nil {
		s = new(Scratch)
	}
	s.prefs, s.ivs, s.scores = resize(s.prefs, n), resize(s.ivs, 2*n), resize(s.scores, 5*n)
	return s.prefs, s.ivs[:n:n], s.ivs[n:], s.scores
}

// LedgerEntry builds the audit-ledger entry of out, a day settled on
// the scratch, with its rows in the scratch, so the entry aliases the
// scratch like the rest of the outcome. A nil scratch gives the entry
// fresh rows, as Outcome.LedgerEntry does.
func (s *Scratch) LedgerEntry(out *Outcome) mechanism.LedgerEntry {
	if s == nil {
		return out.LedgerEntry()
	}
	s.ledger = resize(s.ledger, len(out.Record.Reports))
	return out.ledgerEntry(s.ledger)
}

// resize returns buf with length n, reallocated only when it has too
// little capacity. The entries it keeps hold whatever they held.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
