// Package sim is the in-process multi-day simulation driver: it drives
// the same settle.Machine as the TCP center and the cluster shards
// (internal/netproto) against the same Policy contract, without
// sockets. Any household policy — truthful, misreporting, or
// ECC-learning — can therefore be developed and tested in-process and
// then deployed over the wire unchanged.
//
// The driver records a per-day metric time series (cost, peak, PAR,
// defections, payments) for longitudinal studies such as the
// smart-meter learning curve.
package sim

import (
	"fmt"

	"enki/internal/core"
	"enki/internal/netproto"
	"enki/internal/settle"
)

// Config parameterizes a simulation run: the day machine's settlement
// parameters.
type Config = settle.Config

// DayMetrics is the aggregate outcome of one simulated day.
type DayMetrics struct {
	Day         int
	Cost        float64   // κ(ω)
	Peak        float64   // peak hourly load (kWh)
	PAR         float64   // peak-to-average ratio
	Defections  int       // households whose consumption differed from their allocation
	Payments    []float64 // per household, in policy order
	Utilities   []float64 // valuation is unknown to the center; this is −payment unless policies expose types (see RunWithTypes)
	Flexibility []float64
	DefectionSc []float64
}

// Result is a full run's time series.
type Result struct {
	Days []DayMetrics
}

// TotalDefections sums defections across all days.
func (r *Result) TotalDefections() int {
	var n int
	for _, d := range r.Days {
		n += d.Defections
	}
	return n
}

// CostSeries returns the per-day neighborhood costs.
func (r *Result) CostSeries() []float64 {
	out := make([]float64, len(r.Days))
	for i, d := range r.Days {
		out[i] = d.Cost
	}
	return out
}

// DefectionSeries returns the per-day defection counts.
func (r *Result) DefectionSeries() []int {
	out := make([]int, len(r.Days))
	for i, d := range r.Days {
		out[i] = d.Defections
	}
	return out
}

// Run simulates `days` day cycles over the policies. Policies are
// addressed by their slice position: household i gets HouseholdID(i).
func Run(cfg Config, policies []netproto.Policy, days int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if len(policies) == 0 {
		return nil, fmt.Errorf("sim: no policies")
	}
	if days <= 0 {
		return nil, fmt.Errorf("sim: days %d must be positive", days)
	}

	res := &Result{}
	for day := 1; day <= days; day++ {
		metrics, err := runDay(cfg, policies, day)
		if err != nil {
			return nil, fmt.Errorf("sim: day %d: %w", day, err)
		}
		res.Days = append(res.Days, *metrics)
	}
	return res, nil
}

// runDay drives one day of the settlement machine: every policy
// reports, the machine allocates, every policy consumes, the machine
// settles, and every policy sees its payment notice.
func runDay(cfg Config, policies []netproto.Policy, day int) (*DayMetrics, error) {
	m := settle.New(cfg, day, "", nil)
	reports := make([]core.Report, len(policies))
	for i, p := range policies {
		reports[i] = core.Report{ID: core.HouseholdID(i), Pref: p.Report(day)}
	}
	assignments, err := m.Allocate(reports, nil)
	if err != nil {
		return nil, err
	}
	consumptions := make([]core.Consumption, len(policies))
	for i, p := range policies {
		consumptions[i] = core.Consumption{ID: reports[i].ID, Interval: p.Consume(day, assignments[i].Interval)}
	}
	out, err := m.Settle(consumptions, nil)
	if err != nil {
		return nil, err
	}
	record := out.Record

	metrics := &DayMetrics{
		Day:         day,
		Cost:        record.Cost,
		Peak:        record.Peak,
		PAR:         out.PAR,
		Payments:    record.Payments,
		Utilities:   make([]float64, len(policies)),
		Flexibility: record.Flexibility,
		DefectionSc: record.Defection,
	}
	for i, p := range policies {
		if core.Defected(assignments[i].Interval, consumptions[i].Interval) {
			metrics.Defections++
		}
		metrics.Utilities[i] = -record.Payments[i]
		p.Feedback(day, record.Notice(i))
	}
	return metrics, nil
}
