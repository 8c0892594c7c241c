package netproto

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/obs"
)

// replicaRetry is the failover suite's reconnect policy: more patient
// than fastRetry because a takeover closes every agent connection at
// once and the agents must outlast the election plus the new leader's
// listener coming up.
var replicaRetry = RetryPolicy{
	MaxAttempts: 20,
	BaseDelay:   5 * time.Millisecond,
	MaxDelay:    250 * time.Millisecond,
	Multiplier:  2,
	Jitter:      0.2,
	Seed:        1,
}

// startReplicaSet starts a 3-replica settlement center writing its
// merged audit ledger to buf, with the same seed and topology as the
// single-center chaos baseline.
func startReplicaSet(t *testing.T, buf *bytes.Buffer, opts ...Option) *ReplicaSet {
	t.Helper()
	base := []Option{
		WithTraceSeed(7),
		WithLedger(NewJournal(buf)),
		WithPhaseDeadline(5 * time.Second),
		WithReplicas(3),
	}
	rs, err := StartReplicaSet(context.Background(), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

// runReplicaDays connects the fixed truthful neighborhood through the
// replica set's dialer and settles the given number of days, asserting
// every day settles clean (no absences, no substitutions) and with a
// zero Theorem 1 residual.
func runReplicaDays(t *testing.T, rs *ReplicaSet, days int) {
	t.Helper()
	agents := make([]*Agent, len(traceTestTypes))
	for i, typ := range traceTestTypes {
		a, err := Connect(context.Background(), rs.Addr(), core.HouseholdID(i), &Truthful{Type: typ},
			WithDialer(rs.Dialer()), WithRetryPolicy(replicaRetry))
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	if err := rs.WaitForAgentsContext(context.Background(), len(agents)); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= days; day++ {
		record, err := rs.RunDayContext(context.Background(), day)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if record.Substituted != nil || record.Absent != nil {
			t.Fatalf("day %d settled degraded (substituted %v, absent %v); failover should have resumed every agent",
				day, record.Substituted, record.Absent)
		}
		var revenue float64
		for _, p := range record.Payments {
			revenue += p
		}
		if residual := revenue - mechanism.DefaultXi*record.Cost; math.Abs(residual) > 1e-9 {
			t.Errorf("day %d budget residual %g, want 0", day, residual)
		}
	}
}

// auditLedger decodes ledger bytes and runs the full equation audit on
// every entry.
func auditLedger(t *testing.T, ledger []byte, wantDays int) {
	t.Helper()
	entries, err := mechanism.ReadLedger(bytes.NewReader(ledger))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != wantDays {
		t.Fatalf("%d ledger entries, want %d", len(entries), wantDays)
	}
	for _, e := range entries {
		if bad := e.Audit(); len(bad) != 0 {
			t.Errorf("day %d audit found mismatches: %v", e.Day, bad)
		}
	}
}

// killOnce returns a kill hook that fires exactly once, at the named
// point of the named day.
func killOnce(day int, point string) func(string, int, string) bool {
	fired := false
	return func(p string, d int, _ string) bool {
		if fired || d != day || p != point {
			return false
		}
		fired = true
		return true
	}
}

// TestChaosReplicaFaultFreeMatchesSingleCenter pins the replication
// no-op guarantee: with no faults, a 3-replica set settles to the exact
// ledger bytes of a standalone center with the same seed, and every
// replica's local journal holds those same bytes.
func TestChaosReplicaFaultFreeMatchesSingleCenter(t *testing.T) {
	clean := runChaosDays(t, 3, nil)

	var buf bytes.Buffer
	rs := startReplicaSet(t, &buf)
	runReplicaDays(t, rs, 3)

	if !bytes.Equal(buf.Bytes(), clean) {
		t.Errorf("replicated merged ledger diverged from single-center run:\n got: %s\nwant: %s", buf.Bytes(), clean)
	}
	for id := 0; id < 3; id++ {
		if got := rs.ReplicaLedger(id); !bytes.Equal(got, clean) {
			t.Errorf("replica %d local ledger diverged:\n got: %s\nwant: %s", id, got, clean)
		}
	}
	if f := rs.Failovers(); f != 0 {
		t.Errorf("fault-free run recorded %d failovers", f)
	}
	auditLedger(t, buf.Bytes(), 3)
}

// TestChaosReplicaLeaderKilledEveryPhase is the tentpole acceptance
// test: killing the leader in every settlement phase of day 2 —
// including the window between a quorum of ledger-entry acks and the
// leader's commit — must elect the lowest live replica, resume the day
// from the replicated journal, and settle every day to the
// byte-identical merged ledger of a fault-free run, with the surviving
// replicas' local journals matching too.
func TestChaosReplicaLeaderKilledEveryPhase(t *testing.T) {
	clean := runChaosDays(t, 3, nil)

	points := []string{"preference", "consumption", "settle", "beforeCommit", "payment"}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			var buf bytes.Buffer
			rs := startReplicaSet(t, &buf)
			rs.killAt = killOnce(2, point)
			runReplicaDays(t, rs, 3)

			if !bytes.Equal(buf.Bytes(), clean) {
				t.Errorf("merged ledger diverged after %s kill:\n got: %s\nwant: %s", point, buf.Bytes(), clean)
			}
			if got := rs.Failovers(); got != 1 {
				t.Errorf("failovers = %d, want 1", got)
			}
			if got := rs.Leader(); got != 1 {
				t.Errorf("leader = %d, want 1 (lowest live after killing 0)", got)
			}
			if got := rs.Term(); got != 2 {
				t.Errorf("term = %d, want 2", got)
			}
			for _, id := range []int{1, 2} {
				if got := rs.ReplicaLedger(id); !bytes.Equal(got, clean) {
					t.Errorf("surviving replica %d ledger diverged after %s kill:\n got: %s\nwant: %s", id, point, got, clean)
				}
			}
			auditLedger(t, rs.ReplicaLedger(1), 3)
		})
	}
}

// TestChaosReplicaSettlementCountedOnce pins that a failover never
// counts a day twice: over three days, with the leader killed on day 2
// at each kill point or never, the settlement and day counters each rise
// by exactly three. Only the run that returns a day counts it, and a day
// a new leader replays from its committed entries is returned once.
func TestChaosReplicaSettlementCountedOnce(t *testing.T) {
	for _, point := range []string{"", "preference", "consumption", "settle", "beforeCommit", "payment"} {
		name := point
		if name == "" {
			name = "no-kill"
		}
		t.Run(name, func(t *testing.T) {
			settlements := obs.Default().Counter(obs.MetricMechSettlementsTotal)
			days := obs.Default().Counter(obs.MetricNetDaysTotal)
			settled0, days0 := settlements.Value(), days.Value()

			var buf bytes.Buffer
			rs := startReplicaSet(t, &buf)
			if point != "" {
				rs.killAt = killOnce(2, point)
			}
			runReplicaDays(t, rs, 3)

			if got := settlements.Value() - settled0; got != 3 {
				t.Errorf("%s rose by %d over 3 days, want 3", obs.MetricMechSettlementsTotal, got)
			}
			if got := days.Value() - days0; got != 3 {
				t.Errorf("%s rose by %d over 3 days, want 3", obs.MetricNetDaysTotal, got)
			}
		})
	}
}

// TestChaosReplicaFollowerDeathHarmless pins that losing a follower
// costs nothing: the leader still reaches a 2/3 quorum and the merged
// ledger is unchanged.
func TestChaosReplicaFollowerDeathHarmless(t *testing.T) {
	clean := runChaosDays(t, 2, nil)

	var buf bytes.Buffer
	rs := startReplicaSet(t, &buf)
	if err := rs.Kill(2); err != nil {
		t.Fatal(err)
	}
	runReplicaDays(t, rs, 2)

	if !bytes.Equal(buf.Bytes(), clean) {
		t.Errorf("merged ledger diverged after follower death:\n got: %s\nwant: %s", buf.Bytes(), clean)
	}
	if f := rs.Failovers(); f != 0 {
		t.Errorf("follower death triggered %d failovers", f)
	}
}

// TestChaosReplicaQuorumLossFailsDay pins the safety boundary: with a
// minority of replicas live there is no leader to elect, and the day
// fails with ErrQuorumLost instead of settling unreplicated.
func TestChaosReplicaQuorumLossFailsDay(t *testing.T) {
	var buf bytes.Buffer
	rs := startReplicaSet(t, &buf)

	agents := make([]*Agent, len(traceTestTypes))
	for i, typ := range traceTestTypes {
		a, err := Connect(context.Background(), rs.Addr(), core.HouseholdID(i), &Truthful{Type: typ},
			WithDialer(rs.Dialer()), WithRetryPolicy(replicaRetry))
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		defer a.Close()
	}
	if err := rs.WaitForAgentsContext(context.Background(), len(agents)); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.RunDayContext(context.Background(), 1); err != nil {
		t.Fatalf("day 1: %v", err)
	}
	if err := rs.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := rs.Kill(1); err != nil {
		t.Fatal(err)
	}
	_, err := rs.RunDayContext(context.Background(), 2)
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("day 2 after losing quorum: err = %v, want ErrQuorumLost", err)
	}
}

// TestChaosReplicaLedgerWriteFailure: a replica set keeps the cluster's
// write-error contract for its WithLedger journal. When the write of day
// 2's line fails, day 2 fails with the wrapped error, the operator plane
// reads the day failed, and the ledger keeps exactly day 1's line with
// no write after the failed one, while the quorum log still holds both
// days. With the leader killed between the day entry's acks and its
// commit, the takeover writes the line, and its failure fails the day
// the same way.
func TestChaosReplicaLedgerWriteFailure(t *testing.T) {
	clean := runChaosDays(t, 2, nil)
	want := strings.SplitAfter(string(clean), "\n")[0]
	for _, point := range []string{"", "beforeCommit"} {
		name := point
		if name == "" {
			name = "no-kill"
		}
		t.Run(name, func(t *testing.T) {
			w := &failingWriter{k: 2}
			rs := startReplicaSet(t, new(bytes.Buffer), WithLedger(NewJournal(w)))
			rs.killAt = killOnce(2, point)
			for i, typ := range traceTestTypes {
				a, err := Connect(context.Background(), rs.Addr(), core.HouseholdID(i), &Truthful{Type: typ},
					WithDialer(rs.Dialer()), WithRetryPolicy(replicaRetry))
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
			}
			if err := rs.WaitForAgentsContext(context.Background(), len(traceTestTypes)); err != nil {
				t.Fatal(err)
			}
			if _, err := rs.RunDayContext(context.Background(), 1); err != nil {
				t.Fatalf("day 1: %v", err)
			}
			_, err := rs.RunDayContext(context.Background(), 2)
			if !errors.Is(err, errDiskFull) || !strings.Contains(err.Error(), "netproto: audit ledger") {
				t.Fatalf("day 2 error %v, want the wrapped audit ledger write failure", err)
			}
			if got := w.buf.String(); got != want {
				t.Errorf("ledger holds %d lines, want day 1's line only:\n got: %s\nwant: %s", strings.Count(got, "\n"), got, want)
			}
			if w.n != w.k {
				t.Errorf("%d writes, want none after the failed write %d", w.n, w.k)
			}
			if phase := rs.DayStatus().Phase; phase != "failed" {
				t.Errorf("phase %q after a ledger failure, want failed", phase)
			}
			if got := rs.ReplicaLedger(1); !bytes.Equal(got, clean) {
				t.Errorf("replica 1's log lost a day:\n got: %s\nwant: %s", got, clean)
			}
		})
	}
}

// TestChaosReplicaStatusEndpoint pins the /api/v1/replicas surface:
// roles, term, quorum, and failover count before and after a leader
// kill.
func TestChaosReplicaStatusEndpoint(t *testing.T) {
	var buf bytes.Buffer
	rs := startReplicaSet(t, &buf)
	rs.killAt = killOnce(1, "settle")
	runReplicaDays(t, rs, 1)

	srv := httptest.NewServer(rs.Operator().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/replicas")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/replicas: %d", resp.StatusCode)
	}
	var st obs.ReplicaSetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Leader != 1 || st.Term != 2 || st.Failovers != 1 || !st.Quorum {
		t.Errorf("status = leader %d term %d failovers %d quorum %v, want leader 1 term 2 failovers 1 quorum true",
			st.Leader, st.Term, st.Failovers, st.Quorum)
	}
	if len(st.Replicas) != 3 {
		t.Fatalf("%d replica rows, want 3", len(st.Replicas))
	}
	roles := map[int]string{}
	for _, r := range st.Replicas {
		roles[r.ID] = r.Role
	}
	if roles[0] != "dead" || roles[1] != "leader" || roles[2] != "follower" {
		t.Errorf("roles = %v, want 0:dead 1:leader 2:follower", roles)
	}
}

// TestChaosReplicaOperatorPlane pins the replica set's one operator
// plane through every leader kill point: with SLOs and metrics reporting
// on, the set serves the SLO, federation and ledger endpoints a center
// serves; its day status reads the last settled day however the leader
// died; and every day, a redelivered one included, closes with exactly
// one ok day event, the last day event recorded for it.
func TestChaosReplicaOperatorPlane(t *testing.T) {
	for _, point := range []string{"", "preference", "consumption", "settle", "beforeCommit", "payment"} {
		name := point
		if name == "" {
			name = "no-kill"
		}
		t.Run(name, func(t *testing.T) {
			rec := obs.DefaultRecorder()
			rec.Reset()
			rec.Enable()
			defer func() {
				rec.Disable()
				rec.Reset()
			}()
			var buf bytes.Buffer
			rs := startReplicaSet(t, &buf, WithSLO(), WithMetricsReporting(true))
			if point != "" {
				rs.killAt = killOnce(2, point)
			}
			runReplicaDays(t, rs, 3)

			srv := httptest.NewServer(rs.Operator().Handler())
			defer srv.Close()
			get := func(path string) *http.Response {
				t.Helper()
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %d, want 200", path, resp.StatusCode)
				}
				return resp
			}
			for _, path := range []string{"/api/v1/slo", "/api/v1/federation", "/api/v1/ledger/tail"} {
				get(path).Body.Close()
			}
			resp := get("/api/v1/day")
			defer resp.Body.Close()
			var day obs.DayStatus
			if err := json.NewDecoder(resp.Body).Decode(&day); err != nil {
				t.Fatal(err)
			}
			if day.Day != 3 || day.Phase != "settled" || day.DaysSettled != 3 {
				t.Errorf("/api/v1/day = day %d phase %q daysSettled %d, want day 3 settled, 3 settled",
					day.Day, day.Phase, day.DaysSettled)
			}

			oks, last := map[int]int{}, map[int]string{}
			for _, e := range rec.Events() {
				if e.Kind != obs.EventDay {
					continue
				}
				last[e.Day] = e.Action
				if e.Action == "ok" {
					oks[e.Day]++
				}
			}
			for d := 1; d <= 3; d++ {
				if oks[d] != 1 || last[d] != "ok" {
					t.Errorf("day %d: %d ok day events, last %q; want exactly one ok, recorded last", d, oks[d], last[d])
				}
			}
		})
	}
}

// TestReplicaOptionValidation pins the consolidated-API contract: every
// With* option knows which constructors it configures, and a misplaced
// option is a descriptive error instead of a silent no-op.
func TestReplicaOptionValidation(t *testing.T) {
	if _, err := StartReplicaSet(context.Background(), WithShards(4)); err == nil {
		t.Error("StartReplicaSet(WithShards) succeeded, want target error")
	} else if !strings.Contains(err.Error(), "WithShards") || !strings.Contains(err.Error(), "StartCluster") {
		t.Errorf("StartReplicaSet(WithShards) error %q should name the option and its real target", err)
	}

	if _, err := StartCenter("127.0.0.1:0", WithReplicas(3)); err == nil {
		t.Error("StartCenter(WithReplicas) succeeded, want target error")
	} else if !strings.Contains(err.Error(), "WithReplicas") || !strings.Contains(err.Error(), "StartReplicaSet") {
		t.Errorf("StartCenter(WithReplicas) error %q should name the option and its real target", err)
	}

	if _, err := Connect(context.Background(), "127.0.0.1:0", 0, &Truthful{}, WithQuorumTimeout(time.Second)); err == nil {
		t.Error("Connect(WithQuorumTimeout) succeeded, want target error")
	} else if !strings.Contains(err.Error(), "WithQuorumTimeout") {
		t.Errorf("Connect(WithQuorumTimeout) error %q should name the option", err)
	}

	if _, err := StartReplicaSet(context.Background(), WithReplicas(2)); err == nil {
		t.Error("even replica count accepted, want odd-count error")
	}
	if _, err := StartReplicaSet(context.Background(), WithCodec("zstd")); err == nil {
		t.Error("unknown codec accepted, want codec error")
	}
}
