package mechanism

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"enki/internal/core"
	"enki/internal/obs"
)

// LedgerSchemaVersion identifies the audit-ledger record layout.
const LedgerSchemaVersion = 1

// LedgerHousehold is one household's row in a day's audit ledger: the
// raw inputs (report, allocation, consumption) alongside every Eq. 4–7
// intermediate computed from them, so an auditor can recompute the
// whole score/payment chain without the center's process state.
type LedgerHousehold struct {
	ID       core.HouseholdID `json:"id"`
	Reported core.Preference  `json:"reported"`
	Assigned core.Interval    `json:"assigned"`
	Consumed core.Interval    `json:"consumed"`

	// DefermentSlots is the greedy scheduler's decision for this
	// household: how many hours past the reported window begin the
	// allocation deferred it (0 = scheduled at the earliest wish).
	DefermentSlots int `json:"defermentSlots"`

	// Substituted marks a degraded-day settlement: the household went
	// dark before confirming consumption, so Consumed is the center's
	// imputation (DarkConsumption of the journaled report) rather than
	// a reported interval, and the household is settled as a defector
	// (Defected true, flexibility forfeited) regardless of whether the
	// imputed interval happens to match the assignment. Omitted on
	// fault-free days so their ledger bytes are unchanged.
	Substituted bool `json:"substituted,omitempty"`

	Defected             bool    `json:"defected"`
	PredictedFlexibility float64 `json:"predictedFlexibility"` // Eq. 4, assuming compliance
	Flexibility          float64 `json:"flexibility"`          // Eq. 4, zeroed on defection
	Defection            float64 `json:"defection"`            // Eq. 5
	SocialCost           float64 `json:"socialCost"`           // Eq. 6
	Payment              float64 `json:"payment"`              // Eq. 7
}

// LedgerEntry is the deterministic per-day audit record the settlement
// path emits: one JSONL line per day, linked to the day's trace ID, and
// byte-identical for identical day inputs (no clocks, no randomness).
type LedgerEntry struct {
	Schema  int    `json:"schema"`
	TraceID string `json:"traceId"`
	Day     int    `json:"day"`

	// Mechanism parameters the recorded chain was computed under.
	K      float64 `json:"k"`
	Xi     float64 `json:"xi"`
	Rating float64 `json:"rating"`

	Cost           float64 `json:"cost"`           // κ(ω)
	Revenue        float64 `json:"revenue"`        // Σ p_i
	BudgetResidual float64 `json:"budgetResidual"` // Σ p_i − κ(ω) = (ξ−1)·κ(ω)
	Peak           float64 `json:"peak"`

	Households []LedgerHousehold `json:"households"`

	// Absent lists the members that never reported a preference, sorted:
	// they sat the day out (no allocation, no bill), so they have no
	// row. Omitted on days without absentees, so those days' ledger
	// bytes are unchanged.
	Absent []core.HouseholdID `json:"absent,omitempty"`
}

// BuildLedgerEntry assembles the audit record for one settled day from
// the settlement chain's inputs and intermediates. Slices are parallel
// with reports; substituted marks degraded-day imputations (nil means
// none). The entry is a pure function of its arguments.
func BuildLedgerEntry(traceID string, day int, cfg Config, rating float64,
	reports []core.Report, assigned, consumed []core.Interval, substituted []bool,
	predicted, flex, defect, psi, payments []float64, cost, peak float64) LedgerEntry {
	return BuildLedgerEntryInto(make([]LedgerHousehold, len(reports)), traceID, day, cfg, rating,
		reports, assigned, consumed, substituted, predicted, flex, defect, psi, payments, cost, peak)
}

// BuildLedgerEntryInto is BuildLedgerEntry with the caller's storage for
// the rows: the entry's Households aliases rows, every row of it
// overwritten, unless rows has too little room for the reports, which
// gives the entry fresh rows.
func BuildLedgerEntryInto(rows []LedgerHousehold, traceID string, day int, cfg Config, rating float64,
	reports []core.Report, assigned, consumed []core.Interval, substituted []bool,
	predicted, flex, defect, psi, payments []float64, cost, peak float64) LedgerEntry {
	if cap(rows) < len(reports) {
		rows = make([]LedgerHousehold, len(reports))
	}
	entry := LedgerEntry{
		Schema:     LedgerSchemaVersion,
		TraceID:    traceID,
		Day:        day,
		K:          cfg.K,
		Xi:         cfg.Xi,
		Rating:     rating,
		Cost:       cost,
		Peak:       peak,
		Households: rows[:len(reports)],
	}
	for i, r := range reports {
		slots := int(assigned[i].Begin - r.Pref.Window.Begin)
		if slots < 0 {
			slots = 0
		}
		sub := substituted != nil && substituted[i]
		entry.Households[i] = LedgerHousehold{
			ID:                   r.ID,
			Reported:             r.Pref,
			Assigned:             assigned[i],
			Consumed:             consumed[i],
			DefermentSlots:       slots,
			Substituted:          sub,
			Defected:             core.Defected(assigned[i], consumed[i]) || sub,
			PredictedFlexibility: predicted[i],
			Flexibility:          flex[i],
			Defection:            defect[i],
			SocialCost:           psi[i],
			Payment:              payments[i],
		}
		entry.Revenue += payments[i]
	}
	entry.BudgetResidual = entry.Revenue - cost
	return entry
}

// AppendJSON appends the entry's JSON encoding to dst and returns the
// extended slice: exactly the bytes json.Marshal writes for the entry,
// without reflection. Like json.Marshal it fails on a NaN or infinite
// float, with the same error, and then returns nil. LedgerEntry has no
// MarshalJSON method, so json.Marshal stays an independent check of
// these bytes (TestLedgerEntryAppendJSON).
func (e *LedgerEntry) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonBuf{b: dst}
	w.int(`{"schema":`, e.Schema)
	w.b = append(w.b, `,"traceId":`...)
	w.b = appendJSONString(w.b, e.TraceID)
	w.int(`,"day":`, e.Day)
	w.float(`,"k":`, e.K)
	w.float(`,"xi":`, e.Xi)
	w.float(`,"rating":`, e.Rating)
	w.float(`,"cost":`, e.Cost)
	w.float(`,"revenue":`, e.Revenue)
	w.float(`,"budgetResidual":`, e.BudgetResidual)
	w.float(`,"peak":`, e.Peak)
	if e.Households == nil {
		w.b = append(w.b, `,"households":null`...)
	} else {
		w.b = append(w.b, `,"households":[`...)
		for i := range e.Households {
			h := &e.Households[i]
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.int(`{"id":`, int(h.ID))
			w.interval(`,"reported":{"window":`, h.Reported.Window)
			w.int(`,"duration":`, h.Reported.Duration)
			w.b = append(w.b, '}')
			w.interval(`,"assigned":`, h.Assigned)
			w.interval(`,"consumed":`, h.Consumed)
			w.int(`,"defermentSlots":`, h.DefermentSlots)
			if h.Substituted {
				w.b = append(w.b, `,"substituted":true`...)
			}
			w.b = append(w.b, `,"defected":`...)
			w.b = strconv.AppendBool(w.b, h.Defected)
			w.float(`,"predictedFlexibility":`, h.PredictedFlexibility)
			w.float(`,"flexibility":`, h.Flexibility)
			w.float(`,"defection":`, h.Defection)
			w.float(`,"socialCost":`, h.SocialCost)
			w.float(`,"payment":`, h.Payment)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	if len(e.Absent) > 0 {
		sep := `,"absent":[`
		for _, id := range e.Absent {
			w.int(sep, int(id))
			sep = ","
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// jsonBuf is AppendJSON's output and its first error. Each writer
// appends a literal key (with any punctuation before it) and a value.
type jsonBuf struct {
	b   []byte
	err error
}

func (w *jsonBuf) int(key string, v int) {
	w.b = strconv.AppendInt(append(w.b, key...), int64(v), 10)
}

func (w *jsonBuf) interval(key string, iv core.Interval) {
	w.b = append(w.b, key...)
	w.int(`{"begin":`, iv.Begin)
	w.int(`,"end":`, iv.End)
	w.b = append(w.b, '}')
}

// float writes f by encoding/json's rule: the shortest representation
// that round-trips, in 'f' form, or in 'e' form below 1e-6 and from
// 1e21 on with a one-digit negative exponent unpadded (e-7, not e-07).
func (w *jsonBuf) float(key string, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	w.b = append(w.b, key...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// appendJSONString appends s as a JSON string escaped the way
// json.Marshal escapes it: quote, backslash and control bytes escaped,
// <, > and & as \u003c, \u003e and \u0026, invalid UTF-8 as \ufffd, and
// U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// ReadLedger loads an audit ledger from a JSONL stream, in order. A
// corrupt or truncated final line (crash during append) is skipped, as
// are blank lines; corruption followed by further valid entries is an
// error (see obs.ReadJSONL).
func ReadLedger(r io.Reader) ([]LedgerEntry, error) {
	return obs.ReadJSONL[LedgerEntry](r, "mechanism: ledger")
}

// auditTolerance absorbs float round-trip noise (JSON encode/decode and
// summation order) when recomputing the chain; any real inconsistency
// is orders of magnitude larger.
const auditTolerance = 1e-9

func auditClose(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= auditTolerance*math.Max(scale, 1)
}

// Audit recomputes the recorded equation chain from the entry's own
// inputs and returns every mismatch found (empty = the entry is
// internally consistent):
//
//   - each row obeys the rules the day machine enforces: the report
//     admits the assigned interval, and the consumed interval passes the
//     report's core.Preference.CheckConsumption (inside the day, the
//     declared duration); an off-day interval drops out of κ(ω) and so
//     skews every payment;
//   - Eq. 4: predicted flexibility from the reported preferences, and
//     its zeroing for households whose consumption defected;
//   - defection flags from assigned vs consumed intervals, with
//     substituted (degraded-day) households forced onto the defector
//     path and their imputed interval checked against DarkConsumption
//     of the journaled report;
//   - Eq. 6: social-cost scores from the recorded flexibility and
//     defection scores under the entry's k;
//   - Eq. 7: payments from the recomputed scores under the entry's ξ
//     and recorded cost;
//   - the Theorem 1 budget identity Σp − κ(ω) = (ξ−1)·κ(ω);
//   - the absentees are listed in ascending order, each once, and none
//     of them has a bill.
//
// The Eq. 5 defection magnitudes depend on the pricing function, which
// the ledger does not embed; they are audited as recorded inputs.
func (e LedgerEntry) Audit() []string {
	var bad []string
	n := len(e.Households)
	if n == 0 {
		return []string{"entry has no households"}
	}
	if e.Schema != LedgerSchemaVersion {
		bad = append(bad, fmt.Sprintf("schema %d, auditor understands %d", e.Schema, LedgerSchemaVersion))
	}

	prefs := make([]core.Preference, n)
	flex := make([]float64, n)
	defect := make([]float64, n)
	for i, h := range e.Households {
		prefs[i] = h.Reported
		flex[i] = h.Flexibility
		defect[i] = h.Defection
	}

	predicted := FlexibilityScores(prefs)
	for i, h := range e.Households {
		if err := h.Assigned.Validate(); err != nil {
			bad = append(bad, fmt.Sprintf("household %d: assigned interval %v: %v", h.ID, h.Assigned, err))
		} else if !h.Reported.Admits(h.Assigned) {
			bad = append(bad, fmt.Sprintf("household %d: assigned interval %v not admitted by report %v", h.ID, h.Assigned, h.Reported))
		}
		if err := h.Reported.CheckConsumption(h.Consumed); err != nil {
			bad = append(bad, fmt.Sprintf("household %d: consumed interval %v: %v", h.ID, h.Consumed, err))
		}
		if !auditClose(predicted[i], h.PredictedFlexibility) {
			bad = append(bad, fmt.Sprintf("household %d: Eq. 4 predicted flexibility %g, recorded %g",
				h.ID, predicted[i], h.PredictedFlexibility))
		}
		defected := core.Defected(h.Assigned, h.Consumed) || h.Substituted
		if defected != h.Defected {
			bad = append(bad, fmt.Sprintf("household %d: defected flag %v, intervals say %v",
				h.ID, h.Defected, defected))
		}
		if h.Substituted {
			if want := DarkConsumption(h.Reported); h.Consumed != want {
				bad = append(bad, fmt.Sprintf("household %d: substituted consumption %v, imputation says %v",
					h.ID, h.Consumed, want))
			}
		}
		wantFlex := h.PredictedFlexibility
		if defected {
			wantFlex = 0
		}
		if !auditClose(wantFlex, h.Flexibility) {
			bad = append(bad, fmt.Sprintf("household %d: actual flexibility %g, recorded %g",
				h.ID, wantFlex, h.Flexibility))
		}
		slots := int(h.Assigned.Begin - h.Reported.Window.Begin)
		if slots < 0 {
			slots = 0
		}
		if slots != h.DefermentSlots {
			bad = append(bad, fmt.Sprintf("household %d: deferment %d slots, recorded %d",
				h.ID, slots, h.DefermentSlots))
		}
	}

	psi, err := SocialCostScores(flex, defect, e.K)
	if err != nil {
		return append(bad, fmt.Sprintf("Eq. 6 recompute failed: %v", err))
	}
	for i, h := range e.Households {
		if !auditClose(psi[i], h.SocialCost) {
			bad = append(bad, fmt.Sprintf("household %d: Eq. 6 social cost %g, recorded %g",
				h.ID, psi[i], h.SocialCost))
		}
	}

	payments, err := Payments(psi, e.Xi, e.Cost)
	if err != nil {
		return append(bad, fmt.Sprintf("Eq. 7 recompute failed: %v", err))
	}
	var revenue float64
	for i, h := range e.Households {
		if !auditClose(payments[i], h.Payment) {
			bad = append(bad, fmt.Sprintf("household %d: Eq. 7 payment %g, recorded %g",
				h.ID, payments[i], h.Payment))
		}
		revenue += h.Payment
	}
	if !auditClose(revenue, e.Revenue) {
		bad = append(bad, fmt.Sprintf("revenue Σp = %g, recorded %g", revenue, e.Revenue))
	}
	if !auditClose(e.Revenue-e.Cost, e.BudgetResidual) {
		bad = append(bad, fmt.Sprintf("budget residual %g, recorded %g", e.Revenue-e.Cost, e.BudgetResidual))
	}
	if !auditClose(e.BudgetResidual, (e.Xi-1)*e.Cost) {
		bad = append(bad, fmt.Sprintf("Theorem 1: residual %g, (ξ−1)·κ = %g", e.BudgetResidual, (e.Xi-1)*e.Cost))
	}
	return append(bad, e.auditAbsent()...)
}

// auditAbsent checks the absent list: ascending, each household once,
// and no absentee billed.
func (e LedgerEntry) auditAbsent() []string {
	if len(e.Absent) == 0 {
		return nil
	}
	var bad []string
	billed := make(map[core.HouseholdID]bool, len(e.Households))
	for _, h := range e.Households {
		billed[h.ID] = true
	}
	for i, id := range e.Absent {
		switch {
		case i > 0 && id == e.Absent[i-1]:
			bad = append(bad, fmt.Sprintf("household %d: listed absent twice", id))
		case i > 0 && id < e.Absent[i-1]:
			bad = append(bad, fmt.Sprintf("household %d: absent list out of order after %d", id, e.Absent[i-1]))
		}
		if billed[id] {
			bad = append(bad, fmt.Sprintf("household %d: listed absent but billed", id))
		}
	}
	return bad
}

// DayAudit is one ledger line judged by Audit: the neighbourhood day it
// settled, its totals κ(ω) and Σp, and every finding (none on a sound
// day).
type DayAudit struct {
	Day      int      `json:"day"`
	TraceID  string   `json:"traceId,omitempty"`
	Cost     float64  `json:"cost"`
	Revenue  float64  `json:"revenue"`
	Findings []string `json:"findings,omitempty"`
}

// AuditLines decodes each line as a LedgerEntry and audits it, in
// order. A line that is not JSON is skipped: the lines come from
// outside the program (a debug bundle, an operator-plane answer), and a
// tool shows what it can.
func AuditLines(lines []json.RawMessage) []DayAudit {
	out := make([]DayAudit, 0, len(lines))
	for _, line := range lines {
		var e LedgerEntry
		if json.Unmarshal(line, &e) != nil {
			continue
		}
		out = append(out, DayAudit{Day: e.Day, TraceID: e.TraceID, Cost: e.Cost, Revenue: e.Revenue, Findings: e.Audit()})
	}
	return out
}
