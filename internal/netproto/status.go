package netproto

import (
	"sync"
	"time"

	"enki/internal/obs"
)

// statusTable is the operator-plane state behind /api/v1/day and
// /api/v1/shards, kept the same way by a center and a cluster: the live
// day row and one row per shard of the last day, each row the
// day machine's status row plus what only the driver knows (shard
// index, health, settle latency). Its own mutex keeps status readers
// off the settlement locks.
type statusTable struct {
	mu         sync.Mutex
	day        obs.DayStatus
	deadlineAt time.Time // the running collection phase's deadline
	shards     []obs.ShardStatus
}

// operatorPlane is what a center, a cluster and a replica set serve
// operators, the same way: the status table, the audit ledger's tail,
// and the federation and SLO engine when configured. Each embeds one, so
// its exported methods are theirs; a replica set hands its plane to
// every leader center it starts, so the table, federation and SLO
// windows outlive a takeover.
type operatorPlane struct {
	stat   statusTable
	ledger *Journal        // nil without an audit ledger
	fed    *obs.Federation // non-nil when metrics reporting is on
	slo    *obs.SLOEngine  // non-nil when SLO objectives are set
}

// newOperatorPlane builds the plane for cfg, validating its SLO
// objectives.
func newOperatorPlane(cfg centerConfig) (*operatorPlane, error) {
	p := &operatorPlane{ledger: cfg.Ledger}
	p.stat.day.Phase = "idle"
	if cfg.Reporting {
		p.fed = obs.NewFederation(obs.Default())
	}
	if len(cfg.SLO) > 0 {
		slo, err := obs.NewSLOEngine(obs.Default(), cfg.SLO)
		if err != nil {
			return nil, err
		}
		p.slo = slo
	}
	return p, nil
}

// Federation returns the federated metrics view, or nil when metrics
// reporting is off.
func (p *operatorPlane) Federation() *obs.Federation { return p.fed }

// Operator assembles the operator plane: the default registry, the
// status table, the audit ledger's tail when a ledger is configured,
// plus the federation and SLO engine when enabled. Serve it with
// obs.ServeOperator; the caller flips SetReady once enrollment is
// complete.
func (p *operatorPlane) Operator() *obs.Operator {
	op := obs.NewOperator(nil)
	op.Status = &p.stat
	if p.ledger != nil {
		op.Ledger = p.ledger
	}
	op.Federation = p.fed
	op.SLO = p.slo
	return op
}

// DayStatus implements obs.StatusSource for /api/v1/day.
func (p *operatorPlane) DayStatus() obs.DayStatus { return p.stat.DayStatus() }

// ShardStatuses implements obs.StatusSource for /api/v1/shards.
func (p *operatorPlane) ShardStatuses() []obs.ShardStatus { return p.stat.ShardStatuses() }

// startPhase opens a collection phase over members households.
func (s *statusTable) startPhase(day int, phase string, members int, deadline time.Duration) {
	s.mu.Lock()
	s.day.Day, s.day.Phase, s.day.Members = day, phase, members
	s.day.Reported, s.day.Dark = 0, 0
	s.deadlineAt = time.Now().Add(deadline)
	s.mu.Unlock()
}

func (s *statusTable) setPhase(phase string) {
	s.mu.Lock()
	s.day.Phase = phase
	s.mu.Unlock()
}

func (s *statusTable) noteReported() {
	s.mu.Lock()
	s.day.Reported++
	s.mu.Unlock()
}

func (s *statusTable) noteDark(n int) {
	s.mu.Lock()
	s.day.Dark = n
	s.mu.Unlock()
}

// closeDay ends a day on the operator plane, the one way a center and a
// cluster do. total is the day's aggregate row; the recorder's day
// event is built from it. A failed day (total.Err set) reads phase
// "failed" with total as its one unhealthy row, and keeps the last
// settled day's count, aggregates and latency. A settled day observes
// its settle latency, with exemplar as the trace to look at, and
// publishes the shard rows: shards, or for nil shards total itself with
// that latency.
func (s *statusTable) closeDay(start time.Time, total obs.ShardStatus, peak float64, shards []obs.ShardStatus, exemplar string) {
	if rec := obs.DefaultRecorder(); rec.Enabled() {
		rec.Record(obs.Event{Kind: obs.EventDay, Day: total.LastDay, Shard: -1, Action: dayAction(total),
			N: total.Settled, TraceID: total.TraceID, Err: total.Err})
	}
	if total.Err == "" {
		total.LastSettleMS = sinceMS(start)
		obs.Default().Histogram(obs.MetricNetDaySettleMS, obs.LatencyBucketsMS).ObserveExemplar(total.LastSettleMS, exemplar)
	}
	if shards == nil {
		shards = []obs.ShardStatus{total}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards = shards
	d := &s.day
	if total.Err != "" {
		d.Phase, s.deadlineAt = "failed", time.Time{}
		return
	}
	d.Phase = "settled"
	d.DaysSettled++
	d.LastCost, d.LastRevenue, d.LastResidual, d.LastPeak = total.Cost, total.Revenue, total.Residual, peak
}

// dayAction is how a day or shard day ended, for the recorder: "failed",
// "degraded" (a dark household or a failed shard) or "ok".
func dayAction(row obs.ShardStatus) string {
	switch {
	case row.Err != "":
		return "failed"
	case !row.Healthy || row.Absent+row.Substituted > 0:
		return "degraded"
	}
	return "ok"
}

// sinceMS is the wall-clock time since start in milliseconds.
func sinceMS(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e6 }

// DayStatus implements obs.StatusSource: the current day, phase, and
// reporting progress for /api/v1/day.
func (s *statusTable) DayStatus() obs.DayStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.day
	if d.Phase != "idle" && d.Phase != "settled" && !s.deadlineAt.IsZero() {
		if left := time.Until(s.deadlineAt); left > 0 {
			d.DeadlineRemainingMS = float64(left.Nanoseconds()) / 1e6
		}
	}
	return d
}

// ShardStatuses implements obs.StatusSource for /api/v1/shards: the
// last day's per-shard rows, in shard-index order. A center is its own
// shard 0, so enkiops renders the same table against an enkid daemon
// and a sharded cluster.
func (s *statusTable) ShardStatuses() []obs.ShardStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.ShardStatus{}, s.shards...)
}
