// Package settle is the settlement day machine: one neighbourhood's
// Figure 1 day cycle — preferences, greedy allocation, consumptions,
// Eq. 4–7 payments — as a pure state machine. It does no I/O, reads no
// clocks, starts no goroutines and records no metrics, so every
// topology drives the same code: the in-process simulator, each shard
// of a sharded cluster, the TCP center, and a replica set's leader,
// which replays committed phase inputs into a fresh machine after a
// failover.
//
// A day has two phases. Allocate takes the reports, sorted by household
// ID, plus the members that never reported (the absentees), validates
// them and runs the scheduler. Settle takes the consumptions, aligned
// with those reports, plus the dark set (reporters that went dark before
// confirming), validates them, imputes DarkConsumption for the dark
// households and runs the Eq. 4–7 chain once through
// mechanism.SettleChainInto. Invalid input fails the day; degradation is
// for darkness, not for misbehaviour. A driver may lend the machine a
// Scratch, so a day settles in reused storage.
package settle

import (
	"errors"
	"fmt"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/obs"
	"enki/internal/pricing"
	"enki/internal/sched"
)

// Config is the settlement parameters of one neighbourhood.
type Config struct {
	Scheduler sched.Scheduler  // allocates the day
	Pricer    pricing.Pricer   // prices hourly load
	Mechanism mechanism.Config // payment scaling factors
	Rating    float64          // per-household power rating r in kW
}

// Validate checks the settlement parameters; drivers check them once,
// at start-up, and prefix the error with their package.
func (c Config) Validate() error {
	switch {
	case c.Scheduler == nil:
		return errors.New("nil scheduler")
	case c.Pricer == nil:
		return errors.New("nil pricer")
	case c.Rating <= 0:
		return fmt.Errorf("rating %g must be positive", c.Rating)
	}
	return c.Mechanism.Validate()
}

// phase is where a machine's day stands.
type phase uint8

const (
	awaitingPreferences phase = iota
	awaitingConsumptions
	finished
)

// Machine is one neighbourhood's settlement day. Create one per day with
// New; it is a value, so a driver keeps it on its stack.
type Machine struct {
	cfg         Config
	day         int
	traceID     string
	phase       phase
	s           *Scratch
	reports     []core.Report
	absent      []core.HouseholdID
	assignments []core.Assignment
}

// New starts day's machine on the caller's scratch; traceID names the
// day in its record and ledger entry. A nil scratch gives the day fresh
// storage, which is what a driver that keeps the day's record passes;
// otherwise the day's outputs alias the scratch until the next New on it
// (see Scratch).
func New(cfg Config, day int, traceID string, s *Scratch) Machine {
	return Machine{cfg: cfg, day: day, traceID: traceID, s: s}
}

// Allocate is the preference phase. reports must be sorted by strictly
// increasing household ID, each preference valid (the zero preference,
// which a driver passes for a missing one, is not); absent lists the
// members that never reported, sorted and disjoint from the reports.
// The machine keeps both slices. It returns the scheduler's
// assignments, aligned with reports.
func (m *Machine) Allocate(reports []core.Report, absent []core.HouseholdID) ([]core.Assignment, error) {
	if m.phase != awaitingPreferences {
		return nil, errors.New("preferences already allocated")
	}
	m.phase = finished // until the phase succeeds
	if len(reports) == 0 {
		return nil, fmt.Errorf("no household reported a preference (all %d dark)", len(absent))
	}
	for i, r := range reports {
		if i > 0 && r.ID <= reports[i-1].ID {
			return nil, fmt.Errorf("household %d: report out of order after household %d", r.ID, reports[i-1].ID)
		}
		if err := r.Pref.Validate(); err != nil {
			return nil, fmt.Errorf("household %d: invalid report: %w", r.ID, err)
		}
	}
	j := 0
	for i, id := range absent {
		if i > 0 && id <= absent[i-1] {
			return nil, fmt.Errorf("absent household %d out of order after household %d", id, absent[i-1])
		}
		for j < len(reports) && reports[j].ID < id {
			j++
		}
		if j < len(reports) && reports[j].ID == id {
			return nil, fmt.Errorf("household %d both reported and absent", id)
		}
	}
	assignments, err := m.s.allocate(m.cfg.Scheduler, reports)
	if err != nil {
		return nil, fmt.Errorf("allocate: %w", err)
	}
	if len(assignments) != len(reports) {
		return nil, fmt.Errorf("allocate: %d assignments for %d reports", len(assignments), len(reports))
	}
	for i, a := range assignments {
		if a.ID != reports[i].ID || !reports[i].Pref.Admits(a.Interval) {
			return nil, fmt.Errorf("allocate: assignment %v of household %d does not fit report %v of household %d",
				a.Interval, a.ID, reports[i].Pref, reports[i].ID)
		}
	}
	if len(absent) == 0 {
		absent = nil
	}
	m.reports, m.absent, m.assignments = reports, absent, assignments
	m.phase = awaitingConsumptions
	return assignments, nil
}

// Outcome is a settled day: the record, the operator status row, and
// what the audit ledger needs. The record's per-household slices and
// the payment notices (DayRecord.Notice) are aligned with the reports.
type Outcome struct {
	Record *DayRecord
	// Status is the day's operator row; the driver adds the shard
	// index and the settle latency.
	Status obs.ShardStatus
	// PAR is the peak-to-average ratio of the consumed load.
	PAR float64

	mech               mechanism.Config
	rating             float64
	predicted          []float64
	assigned, consumed []core.Interval
}

// LedgerEntry builds the day's audit-ledger entry: every Eq. 4–7
// intermediate beside the inputs it came from, in fresh rows (a driver
// that settled on a scratch builds them there: Scratch.LedgerEntry).
func (o *Outcome) LedgerEntry() mechanism.LedgerEntry {
	return o.ledgerEntry(make([]mechanism.LedgerHousehold, len(o.Record.Reports)))
}

// ledgerEntry builds the entry's rows in rows (see
// mechanism.BuildLedgerEntryInto). The entry's absentees alias the
// record's, which are nil on a day without any.
func (o *Outcome) ledgerEntry(rows []mechanism.LedgerHousehold) mechanism.LedgerEntry {
	r := o.Record
	e := mechanism.BuildLedgerEntryInto(rows, r.TraceID, r.Day, o.mech, o.rating, r.Reports, o.assigned, o.consumed,
		r.Substituted, o.predicted, r.Flexibility, r.Defection, r.SocialCost, r.Payments, r.Cost, r.Peak)
	e.Absent = r.Absent
	return e
}

// Settle is the consumption phase. consumptions are aligned with the
// reports and owned by the machine from here on; dark (nil means none)
// marks the reporters that went dark before confirming. A dark
// household's consumption is imputed as mechanism.DarkConsumption of
// its report, whatever its slot holds, and it forfeits its flexibility
// reward. Every other consumption must name its household and pass its
// report's core.Preference.CheckConsumption: inside the day, the
// reported duration. The zero interval, which a driver passes for a
// missing one, fails that rule.
func (m *Machine) Settle(consumptions []core.Consumption, dark []bool) (Outcome, error) {
	if m.phase != awaitingConsumptions {
		return Outcome{}, errors.New("consumptions before allocation")
	}
	m.phase = finished
	n := len(m.reports)
	if len(consumptions) != n || (dark != nil && len(dark) != n) {
		return Outcome{}, fmt.Errorf("%d consumptions and %d dark flags for %d reports", len(consumptions), len(dark), n)
	}
	var substituted []bool
	prefs, assigned, consumed, scores := m.s.mirrors(n)
	for i, r := range m.reports {
		prefs[i] = r.Pref
		assigned[i] = m.assignments[i].Interval
		if dark != nil && dark[i] {
			substituted = dark
			consumptions[i] = core.Consumption{ID: r.ID, Interval: mechanism.DarkConsumption(r.Pref)}
		} else if err := checkConsumption(r, consumptions[i]); err != nil {
			return Outcome{}, err
		}
		consumed[i] = consumptions[i].Interval
	}
	chain, err := mechanism.SettleChainInto(scores, m.cfg.Pricer, m.cfg.Mechanism, m.cfg.Rating, prefs, assigned, consumed, substituted)
	if err != nil {
		return Outcome{}, fmt.Errorf("settle: %w", err)
	}
	record := &DayRecord{
		Day:          m.day,
		TraceID:      m.traceID,
		Reports:      m.reports,
		Assignments:  m.assignments,
		Consumptions: consumptions,
		Payments:     chain.Payments,
		Flexibility:  chain.Flexibility,
		Defection:    chain.Defection,
		SocialCost:   chain.SocialCost,
		Cost:         chain.Cost,
		Peak:         chain.Load.Peak(),
		Substituted:  substituted,
		Absent:       m.absent,
	}
	out := Outcome{
		Record:    record,
		PAR:       chain.Load.PAR(),
		mech:      m.cfg.Mechanism,
		rating:    m.cfg.Rating,
		predicted: chain.Predicted,
		assigned:  assigned,
		consumed:  consumed,
	}
	out.Status = statusRow(record, m.cfg.Mechanism.Xi)
	return out, nil
}

// checkConsumption validates one confirmed consumption against its
// report.
func checkConsumption(r core.Report, c core.Consumption) error {
	if c.ID != r.ID {
		return fmt.Errorf("consumption of household %d in the slot of household %d", c.ID, r.ID)
	}
	if err := r.Pref.CheckConsumption(c.Interval); err != nil {
		return fmt.Errorf("household %d consumption %v: %w", r.ID, c.Interval, err)
	}
	return nil
}

// statusRow is the operator view of a settled record: who settled, and
// the Theorem 1 residual Σp − ξ·κ.
func statusRow(r *DayRecord, xi float64) obs.ShardStatus {
	var revenue float64
	for _, p := range r.Payments {
		revenue += p
	}
	substituted := 0
	for _, s := range r.Substituted {
		if s {
			substituted++
		}
	}
	return obs.ShardStatus{
		Healthy:     true,
		TraceID:     r.TraceID,
		LastDay:     r.Day,
		Households:  len(r.Reports) + len(r.Absent),
		Settled:     len(r.Reports),
		Absent:      len(r.Absent),
		Substituted: substituted,
		Cost:        r.Cost,
		Revenue:     revenue,
		Residual:    revenue - xi*r.Cost,
	}
}
