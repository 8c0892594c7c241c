package settle

import "enki/internal/core"

// DayRecord is the full outcome of one neighbourhood's settlement day.
// Its JSON is what a cluster's ShardDay.Record carries and what the
// record digests of the differential and golden tests pin; the day's
// persisted record is its audit-ledger entry (Outcome.LedgerEntry).
// Every per-household slice is aligned with Reports.
type DayRecord struct {
	Day     int    `json:"day"`
	TraceID string `json:"traceId,omitempty"` // joins the record to its trace and ledger entry

	Reports      []core.Report      `json:"reports"`
	Assignments  []core.Assignment  `json:"assignments"`
	Consumptions []core.Consumption `json:"consumptions"`
	Payments     []float64          `json:"payments"` // aligned with Reports
	Flexibility  []float64          `json:"flexibility"`
	Defection    []float64          `json:"defection"`
	SocialCost   []float64          `json:"socialCost"`
	Cost         float64            `json:"cost"` // κ(ω)
	Peak         float64            `json:"peak"` // peak hourly load

	// Substituted marks the reports whose consumption was imputed
	// (household dark past the consumption deadline); nil on fault-free
	// days so their record bytes are unchanged.
	Substituted []bool `json:"substituted,omitempty"`
	// Absent lists households that were members at dawn but never
	// reported a preference: they sat the day out entirely (no
	// allocation, no bill). Nil on fault-free days.
	Absent []core.HouseholdID `json:"absent,omitempty"`
}

// PaymentDetail is the per-household settlement the center reveals: the
// bill plus the score breakdown and the neighbourhood aggregates, which
// is the "load statistics and score history" information step of the
// user study (Section VII-B).
type PaymentDetail struct {
	Amount      float64 `json:"amount"`      // p_i
	Flexibility float64 `json:"flexibility"` // f_i (0 when defected)
	Defection   float64 `json:"defection"`   // δ_i
	SocialCost  float64 `json:"socialCost"`  // Ψ_i
	TotalCost   float64 `json:"totalCost"`   // κ(ω) for the whole neighbourhood
	PeakLoad    float64 `json:"peakLoad"`    // peak hourly load
}

// Notice returns the payment notice of the i-th report's household.
func (r *DayRecord) Notice(i int) PaymentDetail {
	return PaymentDetail{
		Amount:      r.Payments[i],
		Flexibility: r.Flexibility[i],
		Defection:   r.Defection[i],
		SocialCost:  r.SocialCost[i],
		TotalCost:   r.Cost,
		PeakLoad:    r.Peak,
	}
}
