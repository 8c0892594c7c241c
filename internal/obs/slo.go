package obs

import (
	"errors"
	"fmt"
	"time"
)

// ObjectiveKind selects how an Objective turns registry series into a
// bad/total event stream.
type ObjectiveKind string

const (
	// ObjectiveLatency reads a histogram family: total is the
	// observation count, bad the observations above ThresholdMS.
	ObjectiveLatency ObjectiveKind = "latency"
	// ObjectiveRatio reads counter families: bad and total are the sums
	// of the Bad and Total families.
	ObjectiveRatio ObjectiveKind = "ratio"
	// ObjectiveValue reads a gauge family summed across labels: each
	// evaluation contributes one total event, bad when the reading sits
	// outside Target ± Tolerance.
	ObjectiveValue ObjectiveKind = "value"
)

// Objective is one declarative service-level objective evaluated as
// multi-window burn rates over the registry's existing series. Budget
// is the tolerated bad fraction (the error budget): a burn rate of 1.0
// means events are going bad at exactly the budgeted rate, above 1.0
// the budget is burning down.
type Objective struct {
	Name        string        `json:"name"`
	Description string        `json:"description,omitempty"`
	Kind        ObjectiveKind `json:"kind"`
	Budget      float64       `json:"budget"`

	// Series names the histogram family (latency) or gauge family
	// (value) the objective reads.
	Series string `json:"series,omitempty"`
	// ThresholdMS bounds a latency objective's good observations.
	ThresholdMS float64 `json:"thresholdMs,omitempty"`
	// Bad and Total name the counter families of a ratio objective.
	Bad   []string `json:"bad,omitempty"`
	Total []string `json:"total,omitempty"`
	// Target and Tolerance band a value objective's gauge reading.
	Target    float64 `json:"target,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`
}

func (o Objective) validate() error {
	if o.Name == "" {
		return errors.New("obs: objective needs a name")
	}
	if o.Budget <= 0 || o.Budget > 1 {
		return fmt.Errorf("obs: objective %s: budget %g outside (0, 1]", o.Name, o.Budget)
	}
	switch o.Kind {
	case ObjectiveLatency:
		if o.Series == "" || o.ThresholdMS <= 0 {
			return fmt.Errorf("obs: latency objective %s needs a series and a positive threshold", o.Name)
		}
	case ObjectiveRatio:
		if len(o.Bad) == 0 || len(o.Total) == 0 {
			return fmt.Errorf("obs: ratio objective %s needs bad and total counter families", o.Name)
		}
	case ObjectiveValue:
		if o.Series == "" || o.Tolerance < 0 {
			return fmt.Errorf("obs: value objective %s needs a series and a non-negative tolerance", o.Name)
		}
	default:
		return fmt.Errorf("obs: objective %s: unknown kind %q", o.Name, o.Kind)
	}
	return nil
}

// DefaultObjectives is the operator plane's stock objective set: days
// settle promptly, days rarely degrade, shards rarely fail, and the
// Theorem 1 budget identity never drifts.
func DefaultObjectives() []Objective {
	return []Objective{
		{
			Name:        "day-settle-latency-p99",
			Description: "99% of settlement days complete within 10s end to end",
			Kind:        ObjectiveLatency,
			Series:      MetricNetDaySettleMS,
			ThresholdMS: 10_000,
			Budget:      0.01,
		},
		{
			Name:        "degraded-day-rate",
			Description: "at most 5% of days settle degraded (absent or substituted households)",
			Kind:        ObjectiveRatio,
			Bad:         []string{MetricNetDegradedDaysTotal},
			Total:       []string{MetricNetDaysTotal, MetricClusterDaysTotal},
			Budget:      0.05,
		},
		{
			Name:        "shard-failure-rate",
			Description: "at most 1% of shard settlement attempts fail outright",
			Kind:        ObjectiveRatio,
			Bad:         []string{MetricClusterShardFailures},
			Total:       []string{MetricClusterShardsSettled, MetricClusterShardFailures},
			Budget:      0.01,
		},
		{
			Name:        "budget-residual-zero",
			Description: "settlements keep the Theorem 1 identity Σp = ξ·κ to float tolerance",
			Kind:        ObjectiveRatio,
			Bad:         []string{MetricMechBudgetViolations},
			Total:       []string{MetricMechSettlementsTotal},
			Budget:      0.001,
		},
	}
}

// SLOWindow is one burn-rate evaluation horizon.
type SLOWindow struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"-"`
}

// DefaultSLOWindows are the standard multi-window alerting horizons: a
// fast window that pages on sharp burns and slower windows that catch
// sustained slow burns.
func DefaultSLOWindows() []SLOWindow {
	return []SLOWindow{
		{Name: "5m", Duration: 5 * time.Minute},
		{Name: "30m", Duration: 30 * time.Minute},
		{Name: "6h", Duration: 6 * time.Hour},
	}
}

// BurnRate is one objective's burn over one window: the bad/total event
// deltas between the window's baseline sample and now, the resulting
// bad share, and that share divided by the error budget.
type BurnRate struct {
	Window   string  `json:"window"`
	Bad      uint64  `json:"bad"`
	Total    uint64  `json:"total"`
	BadShare float64 `json:"badShare"`
	Rate     float64 `json:"rate"`
}

// ObjectiveStatus is one objective's evaluated state.
type ObjectiveStatus struct {
	Name        string        `json:"name"`
	Kind        ObjectiveKind `json:"kind"`
	Description string        `json:"description,omitempty"`
	Budget      float64       `json:"budget"`
	Healthy     bool          `json:"healthy"`
	Bad         uint64        `json:"bad"`   // lifetime bad events
	Total       uint64        `json:"total"` // lifetime total events
	Value       float64       `json:"value,omitempty"`
	Burn        []BurnRate    `json:"burn"`
}

// sloSample is one evaluation's cumulative bad/total readings, indexed
// by objective.
type sloSample struct {
	at         time.Time
	bad, total []uint64
}

// maxSLOSamples bounds the retained sample ring regardless of scrape
// rate; the oldest samples beyond the largest window age out anyway.
const maxSLOSamples = 8192

// SLOEngine evaluates declarative objectives as multi-window burn
// rates over the registry's series. It samples on demand (every
// /api/v1/slo request calls Sample) — no background goroutine — and
// exports its verdicts back into the registry as the enki_slo_* series.
type SLOEngine struct {
	reg        *Registry
	objectives []Objective
	windows    []SLOWindow
	samples    []sloSample
}

// NewSLOEngine validates the objectives and returns an engine reading
// from and exporting to reg (nil means the default registry). No
// windows means DefaultSLOWindows.
func NewSLOEngine(reg *Registry, objectives []Objective, windows ...SLOWindow) (*SLOEngine, error) {
	if reg == nil {
		reg = Default()
	}
	if len(windows) == 0 {
		windows = DefaultSLOWindows()
	}
	seen := make(map[string]bool, len(objectives))
	for _, o := range objectives {
		if err := o.validate(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("obs: duplicate objective %s", o.Name)
		}
		seen[o.Name] = true
	}
	return &SLOEngine{
		reg:        reg,
		objectives: append([]Objective(nil), objectives...),
		windows:    append([]SLOWindow(nil), windows...),
	}, nil
}

// Objectives returns the engine's objective set.
func (e *SLOEngine) Objectives() []Objective {
	return append([]Objective(nil), e.objectives...)
}

// Windows returns the engine's burn-rate windows.
func (e *SLOEngine) Windows() []SLOWindow {
	return append([]SLOWindow(nil), e.windows...)
}

// Sample evaluates every objective at now: it reads the registry,
// appends a sample to the ring, prunes samples older than the largest
// window, computes per-window burn rates against the retained
// baselines, exports the enki_slo_* series, and returns the statuses.
// Not safe for concurrent use with itself; the Operator serializes it.
func (e *SLOEngine) Sample(now time.Time) []ObjectiveStatus {
	snap := e.reg.Snapshot()
	cur := sloSample{
		at:    now,
		bad:   make([]uint64, len(e.objectives)),
		total: make([]uint64, len(e.objectives)),
	}
	values := make([]float64, len(e.objectives))
	for i, o := range e.objectives {
		cur.bad[i], cur.total[i], values[i] = measureObjective(snap, o)
	}

	// Value objectives are sampled, not cumulative: fold the previous
	// sample's counts forward so each evaluation adds one event.
	if n := len(e.samples); n > 0 {
		prev := e.samples[n-1]
		for i, o := range e.objectives {
			if o.Kind == ObjectiveValue {
				cur.bad[i] += prev.bad[i]
				cur.total[i] += prev.total[i]
			}
		}
	}
	e.samples = append(e.samples, cur)
	e.prune(now)

	statuses := make([]ObjectiveStatus, len(e.objectives))
	for i, o := range e.objectives {
		st := ObjectiveStatus{
			Name:        o.Name,
			Kind:        o.Kind,
			Description: o.Description,
			Budget:      o.Budget,
			Bad:         cur.bad[i],
			Total:       cur.total[i],
			Value:       values[i],
			Healthy:     true,
		}
		if st.Total > 0 && float64(st.Bad)/float64(st.Total) > o.Budget {
			st.Healthy = false
		}
		for _, w := range e.windows {
			base := e.baseline(now.Add(-w.Duration))
			br := BurnRate{
				Window: w.Name,
				Bad:    cur.bad[i] - base.bad[i],
				Total:  cur.total[i] - base.total[i],
			}
			if br.Total > 0 {
				br.BadShare = float64(br.Bad) / float64(br.Total)
				br.Rate = br.BadShare / o.Budget
			}
			if br.Rate > 1 {
				st.Healthy = false
			}
			st.Burn = append(st.Burn, br)
			e.reg.Gauge(MetricSLOBurnRate, LabelObjective, o.Name, LabelWindow, w.Name).Set(br.Rate)
		}
		healthy := 1.0
		if !st.Healthy {
			healthy = 0
		}
		e.reg.Gauge(MetricSLOHealthy, LabelObjective, o.Name).Set(healthy)
		statuses[i] = st
	}
	e.reg.Counter(MetricSLOSamples).Inc()
	return statuses
}

// baseline returns the most recent sample at or before cutoff, or the
// oldest retained sample when all are newer. The current sample is the
// last element, so with a single sample the burn delta is zero.
func (e *SLOEngine) baseline(cutoff time.Time) sloSample {
	base := e.samples[0]
	for _, s := range e.samples {
		if s.at.After(cutoff) {
			break
		}
		base = s
	}
	return base
}

// prune drops samples older than the largest window (keeping one
// pre-window sample as that window's baseline) and enforces the hard
// ring cap.
func (e *SLOEngine) prune(now time.Time) {
	var maxW time.Duration
	for _, w := range e.windows {
		if w.Duration > maxW {
			maxW = w.Duration
		}
	}
	cutoff := now.Add(-maxW)
	keepFrom := 0
	for i, s := range e.samples {
		if s.at.After(cutoff) {
			break
		}
		keepFrom = i // last sample at or before the cutoff stays
	}
	if keepFrom > 0 {
		e.samples = append(e.samples[:0], e.samples[keepFrom:]...)
	}
	if over := len(e.samples) - maxSLOSamples; over > 0 {
		e.samples = append(e.samples[:0], e.samples[over:]...)
	}
}

// measureObjective reads one objective's cumulative bad/total events
// (and, for value objectives, the current reading) from a snapshot.
func measureObjective(snap Snapshot, o Objective) (bad, total uint64, value float64) {
	switch o.Kind {
	case ObjectiveLatency:
		for k, h := range snap.Histograms {
			if BaseName(k) != o.Series {
				continue
			}
			total += h.Count
			var good uint64
			for i, bound := range h.Bounds {
				if bound <= o.ThresholdMS && i < len(h.Buckets) {
					good += h.Buckets[i]
				}
			}
			bad += h.Count - good
		}
	case ObjectiveRatio:
		for _, fam := range o.Bad {
			bad += snap.CounterSum(fam)
		}
		for _, fam := range o.Total {
			total += snap.CounterSum(fam)
		}
	case ObjectiveValue:
		for k, v := range snap.Gauges {
			if BaseName(k) == o.Series {
				value += v
			}
		}
		total = 1
		if value < o.Target-o.Tolerance || value > o.Target+o.Tolerance {
			bad = 1
		}
	}
	return bad, total, value
}

// CounterSum sums every label combination of one counter family.
func (s Snapshot) CounterSum(family string) uint64 {
	var sum uint64
	for k, v := range s.Counters {
		if BaseName(k) == family {
			sum += v
		}
	}
	return sum
}
