package netproto

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/obs"
	"enki/internal/settle"
)

// legs move one neighbourhood day's messages between the day driver and
// its households. A center's sessions (tcpLegs) and a cluster shard's
// link (shardLegs) are the two transports.
type legs interface {
	// exchange sends one leg and collects its replies: a request to each
	// member when assignments is nil, otherwise each reporter's
	// allocation. The replies are aligned with members or assignments,
	// nil where a reply was lost or the household stayed dark. span is
	// the leg's phase span.
	exchange(ctx context.Context, span *obs.ActiveSpan, members []core.HouseholdID, assignments []core.Assignment) ([]*Message, error)
	// deliver sends the settled day's payment notices.
	deliver(span *obs.ActiveSpan, out *settle.Outcome) error
}

// prefPhasePayload is the committed preference phase input.
type prefPhasePayload struct {
	Reports []core.Report      `json:"reports"`
	Absent  []core.HouseholdID `json:"absent,omitempty"`
}

// consPhasePayload is the committed consumption phase input.
type consPhasePayload struct {
	Consumptions []core.Consumption `json:"consumptions"`
	Substituted  []bool             `json:"substituted,omitempty"`
}

// Committed phase names, the Phase of their log entries: the two phase
// inputs, and the settled day's ledger line.
const (
	phasePreference  = "preference"
	phaseConsumption = "consumption"
	phaseDay         = "day"
)

// phaseKey names one committed phase input, or a settled day, in a
// takeover log.
type phaseKey struct {
	day   int
	phase string
}

// dayRun is one neighbourhood day for the day driver: what the machine
// settles with, and what the caller plugs in.
type dayRun struct {
	cfg     settle.Config
	day     int
	traceID string
	// root is the caller's span, netproto.day on a center and
	// cluster.shard on a shard; nil when tracing is off.
	root *obs.ActiveSpan
	legs legs
	// commit receives the phase inputs and the settled day; nil on a
	// shard, whose worker encodes its ledger line once the day, payments
	// included, has settled, and appends it through the cluster's
	// ledger stream.
	commit committer
	// log is a takeover log's committed phase inputs, replayed into the
	// machine instead of exchanging those legs again, and its settled
	// days, which are not committed again; nil on a shard.
	log map[phaseKey]json.RawMessage
	// scratch is the day's settlement storage: a shard day's pooled one
	// when the cluster keeps no records, nil (fresh storage) otherwise.
	// The outcome aliases it until the next day starts on it.
	scratch *settle.Scratch
}

// run drives the Figure 1 day of a fresh settle.Machine over the sorted
// members: requests → preferences → allocations → consumptions →
// payments. A household whose reply is lost or dark is absent when it
// never reported and settled dark when it reported; an input the
// machine rejects (a reply without its payload among them), a leg's
// error and a commit error fail the day. A day the log holds as settled
// replays to the identical outcome (the machine is pure, and the
// committed consumption input carries its imputations), skips the
// commit and redelivers the payments. The settlement metrics count a
// day once its payments are out, so the run that returns the day is the
// one that counts it. The outcome is valid only when the error is nil.
func (d *dayRun) run(ctx context.Context, members []core.HouseholdID) (settle.Outcome, error) {
	m := settle.New(d.cfg, d.day, d.traceID, d.scratch)

	pref, replayed, err := fromLog[prefPhasePayload](d.log, d.day, phasePreference)
	if err != nil {
		return settle.Outcome{}, err
	}
	if !replayed {
		span := d.span(KindPreference)
		got, err := d.legs.exchange(ctx, span, members, nil)
		span.End()
		if err != nil {
			return settle.Outcome{}, err
		}
		pref.Reports, pref.Absent = d.scratch.Preferences(len(members))
		for i, msg := range got {
			if msg == nil { // lost or dark: absent for the day
				pref.Absent = append(pref.Absent, members[i])
			} else {
				pref.Reports = append(pref.Reports, core.Report{ID: members[i], Pref: orZero(msg.Pref)})
			}
		}
	}
	assignments, err := m.Allocate(pref.Reports, pref.Absent)
	if err != nil {
		return settle.Outcome{}, err
	}
	if !replayed && d.commit != nil {
		if err := d.commit.commitPhase(d.day, phasePreference, pref); err != nil {
			return settle.Outcome{}, err
		}
	}

	cons, replayed, err := fromLog[consPhasePayload](d.log, d.day, phaseConsumption)
	if err != nil {
		return settle.Outcome{}, err
	}
	if !replayed {
		span := d.span(KindConsumption)
		got, err := d.legs.exchange(ctx, span, nil, assignments)
		span.End()
		if err != nil {
			return settle.Outcome{}, err
		}
		cons.Consumptions = d.scratch.Consumptions(len(assignments))
		for i, msg := range got {
			if msg == nil { // reported, then lost or dark: settled dark
				if cons.Substituted == nil {
					cons.Substituted = d.scratch.Dark(len(assignments))
				}
				cons.Substituted[i] = true
			} else {
				cons.Consumptions[i] = core.Consumption{ID: assignments[i].ID, Interval: orZero(msg.Interval)}
			}
		}
	}
	span := d.span("")
	out, err := m.Settle(cons.Consumptions, cons.Substituted)
	span.End()
	if err != nil {
		return settle.Outcome{}, err
	}
	r := out.Record
	if !replayed && d.commit != nil {
		// The committed input carries the machine's imputations, so a
		// replay settles the identical day.
		cons = consPhasePayload{Consumptions: r.Consumptions, Substituted: r.Substituted}
		if err := d.commit.commitPhase(d.day, phaseConsumption, cons); err != nil {
			return settle.Outcome{}, err
		}
	}
	// A replica set's leader blocks here until a majority holds the day;
	// a standalone center appends it to its ledger.
	if _, settled := d.log[phaseKey{d.day, phaseDay}]; !settled && d.commit != nil {
		if err := d.commit.commitDay(&out); err != nil {
			return settle.Outcome{}, err
		}
	}
	span = d.span(KindPayment)
	err = d.legs.deliver(span, &out)
	span.End()
	if err != nil {
		return settle.Outcome{}, err
	}
	mechanism.RecordSettlementMetrics(r.Flexibility, r.Defection, r.SocialCost, r.Payments, r.Cost, d.cfg.Mechanism.Xi, out.PAR)
	return out, nil
}

// orZero is *p, or the zero value when p is nil: a reply without its
// payload carries the zero preference or interval, which the machine
// rejects as invalid input.
func orZero[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
}

// span opens the root's child span of one leg, or of the settlement for
// the empty phase. It builds no labels when tracing is off.
func (d *dayRun) span(phase Kind) *obs.ActiveSpan {
	if d.root == nil {
		return nil
	}
	day := strconv.Itoa(d.day)
	if phase == "" {
		return d.root.StartChild(obs.SpanNetSettle, "day", day)
	}
	return d.root.StartChild(obs.SpanNetPhase, obs.LabelPhase, string(phase), "day", day)
}

// fromLog returns the input of phase that a takeover log committed for
// day, and whether the log held one.
func fromLog[T any](log map[phaseKey]json.RawMessage, day int, phase string) (T, bool, error) {
	data, ok := log[phaseKey{day, phase}]
	if !ok {
		var none T
		return none, false, nil
	}
	in := new(T)
	if err := json.Unmarshal(data, in); err != nil {
		return *in, false, fmt.Errorf("committed %s phase: %w", phase, err)
	}
	return *in, true, nil
}
