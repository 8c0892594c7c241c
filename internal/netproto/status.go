package netproto

import (
	"sync"
	"time"

	"enki/internal/obs"
)

// statusTable is the operator-plane state behind /api/v1/day and
// /api/v1/shards, kept the same way by a center and a cluster: the live
// day row and one row per shard of the last settled day, each row the
// day machine's status row plus what only the driver knows (shard
// index, health, settle latency). Its own mutex keeps status readers
// off the settlement locks.
type statusTable struct {
	mu         sync.Mutex
	day        obs.DayStatus
	deadlineAt time.Time // the running collection phase's deadline
	shards     []obs.ShardStatus
}

func newStatusTable() statusTable {
	return statusTable{day: obs.DayStatus{Phase: "idle"}}
}

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

// settled closes a day: total is the day's aggregate row (the machine's
// row on a center, the shard rows' sum on a cluster), shards the
// per-shard rows.
func (s *statusTable) settled(total obs.ShardStatus, peak float64, shards []obs.ShardStatus) {
	s.mu.Lock()
	d := &s.day
	d.Phase = "settled"
	d.DaysSettled++
	d.LastCost, d.LastRevenue, d.LastResidual, d.LastPeak = total.Cost, total.Revenue, total.Residual, peak
	s.shards = shards
	s.mu.Unlock()
}

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
// last settled day's per-shard rows, in shard-index order.
func (s *statusTable) ShardStatuses() []obs.ShardStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.ShardStatus{}, s.shards...)
}
