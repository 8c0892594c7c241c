package netproto

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/obs"
)

// reportingTypes is a small deterministic neighborhood for the TCP
// federation tests.
var reportingTypes = []core.Type{
	{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
	{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
	{True: core.MustPreference(19, 24, 3), ValuationFactor: 6},
	{True: core.MustPreference(8, 14, 2), ValuationFactor: 2},
}

// startReportingPair starts a center with the given center options and
// one truthful agent per reportingTypes entry with the given agent
// options. The lists are separate because options validate their
// targets: both must carry WithMetricsReporting for reporting tests so
// the two sides agree.
func startReportingPair(t *testing.T, agentOpts []Option, centerOpts ...Option) *Center {
	t.Helper()
	c, err := StartCenter("127.0.0.1:0", centerOpts...)
	if err != nil {
		t.Fatalf("StartCenter: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	for i, typ := range reportingTypes {
		a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ}, agentOpts...)
		if err != nil {
			t.Fatalf("connect agent %d: %v", i, err)
		}
		t.Cleanup(func() { a.Close() })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitForAgentsContext(ctx, len(reportingTypes)); err != nil {
		t.Fatalf("WaitForAgents: %v", err)
	}
	return c
}

// TestCenterReportingFederatesAgentSnapshots: with reporting on, every
// agent piggybacks its cumulative snapshot onto the consumption phase,
// and by the time a day settles the center's federation holds one
// up-to-date source per agent. Day 2's snapshots carry day 1's payment
// feedback, so the merged days-settled counter equals the agent count.
func TestCenterReportingFederatesAgentSnapshots(t *testing.T) {
	c := startReportingPair(t, []Option{WithMetricsReporting(true)},
		WithMetricsReporting(true), WithPhaseDeadline(5*time.Second))
	for day := 1; day <= 2; day++ {
		if _, err := c.RunDayContext(context.Background(), day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	fed := c.Federation()
	if fed == nil {
		t.Fatal("reporting on but Federation() is nil")
	}
	snap := fed.Snapshot()
	if len(snap.Sources) != len(reportingTypes) {
		t.Fatalf("federated sources = %d, want %d (%v)", len(snap.Sources), len(reportingTypes), fed.Sources())
	}
	for i := range reportingTypes {
		src, ok := snap.Sources[fmt.Sprintf("agent/%d", i)]
		if !ok {
			t.Fatalf("agent/%d missing from federation (%v)", i, fed.Sources())
		}
		// Two days requested; the day-2 snapshot rides day 2's
		// consumption phase, after the day-2 request was handled.
		if got := src.Counters[obs.MetricAgentReportsTotal]; got != 2 {
			t.Errorf("agent/%d reports_total = %d, want 2", i, got)
		}
		// Day 1's payment lands before day 2's request on the same
		// ordered connection, so day 2's snapshot shows one settled day.
		if got := src.Counters[obs.MetricAgentDaysSettled]; got != 1 {
			t.Errorf("agent/%d days_settled = %d, want 1", i, got)
		}
	}
	merged := snap.Merged
	if got := merged.Counters[obs.MetricAgentReportsTotal]; got != uint64(2*len(reportingTypes)) {
		t.Errorf("merged reports_total = %d, want %d", got, 2*len(reportingTypes))
	}
	if got := merged.Counters[obs.MetricAgentDaysSettled]; got != uint64(len(reportingTypes)) {
		t.Errorf("merged days_settled = %d, want %d", got, len(reportingTypes))
	}
}

// TestCenterReportingOffKeepsWireClean: without the option the agent
// sends no metricsReport messages and the center exposes no federation —
// the default wire stream is unchanged, keeping fault-plan indices and
// existing chaos plans valid.
func TestCenterReportingOffKeepsWireClean(t *testing.T) {
	c := startReportingPair(t, nil)
	if _, err := c.RunDayContext(context.Background(), 1); err != nil {
		t.Fatalf("day 1: %v", err)
	}
	if c.Federation() != nil {
		t.Error("Federation() non-nil with reporting off")
	}
	op := c.Operator()
	srv := httptest.NewServer(op.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/federation")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/api/v1/federation = %d with reporting off, want 404", resp.StatusCode)
	}
}

// TestCenterOperatorServesLiveDay drives the full operator plane against
// a real settled day: readiness gating, day status, the single-shard
// health table, the audit-ledger tail with its Theorem 1 residual, the
// SLO report, and the federated view.
func TestCenterOperatorServesLiveDay(t *testing.T) {
	var ledgerBuf bytes.Buffer
	ledger := NewJournal(&ledgerBuf)
	c := startReportingPair(t, []Option{WithMetricsReporting(true)},
		WithMetricsReporting(true),
		WithSLO(),
		WithLedger(ledger),
		WithTraceSeed(3),
		WithPhaseDeadline(5*time.Second),
	)
	op := c.Operator()
	srv := httptest.NewServer(op.Handler())
	defer srv.Close()

	get := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if v != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	if code := get("/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", code)
	}
	op.SetReady(true)
	if code := get("/readyz", nil); code != http.StatusOK {
		t.Errorf("/readyz after ready = %d, want 200", code)
	}

	if _, err := c.RunDayContext(context.Background(), 1); err != nil {
		t.Fatalf("day 1: %v", err)
	}

	var day obs.DayStatus
	if code := get("/api/v1/day", &day); code != http.StatusOK {
		t.Fatalf("/api/v1/day = %d", code)
	}
	if day.Phase != "settled" || day.DaysSettled != 1 || day.Day != 1 {
		t.Errorf("day status %+v, want settled day 1", day)
	}
	if math.Abs(day.LastResidual) > 1e-9 {
		t.Errorf("settled-day residual %g, want 0 (Theorem 1)", day.LastResidual)
	}

	var shards []obs.ShardStatus
	if code := get("/api/v1/shards", &shards); code != http.StatusOK {
		t.Fatalf("/api/v1/shards = %d", code)
	}
	if len(shards) != 1 || !shards[0].Healthy || shards[0].Settled != len(reportingTypes) {
		t.Errorf("shard table %+v, want one healthy shard with %d settled", shards, len(reportingTypes))
	}
	if math.Abs(shards[0].Residual) > 1e-9 {
		t.Errorf("shard residual %g, want 0", shards[0].Residual)
	}

	var tail []struct {
		Day     int     `json:"day"`
		Revenue float64 `json:"revenue"`
		Cost    float64 `json:"cost"`
		Xi      float64 `json:"xi"`
	}
	if code := get("/api/v1/ledger/tail?n=5", &tail); code != http.StatusOK {
		t.Fatalf("/api/v1/ledger/tail = %d", code)
	}
	if len(tail) != 1 || tail[0].Day != 1 {
		t.Fatalf("ledger tail %+v, want the one settled day", tail)
	}
	if residual := tail[0].Revenue - tail[0].Xi*tail[0].Cost; math.Abs(residual) > 1e-9 {
		t.Errorf("ledger-tail residual %g, want 0", residual)
	}

	var slo obs.SLOReport
	if code := get("/api/v1/slo", &slo); code != http.StatusOK {
		t.Fatalf("/api/v1/slo = %d", code)
	}
	if len(slo.Objectives) != len(obs.DefaultObjectives()) {
		t.Fatalf("slo objectives = %d, want %d", len(slo.Objectives), len(obs.DefaultObjectives()))
	}
	// The SLO engine reads the shared default registry, which other
	// tests in this binary also feed (degraded days, injected faults),
	// so only the budget identity — which nothing in the suite violates
	// — is asserted healthy; the rest are checked structurally.
	for _, o := range slo.Objectives {
		if len(o.Burn) != len(slo.Windows) {
			t.Errorf("objective %s has %d burn windows, want %d", o.Name, len(o.Burn), len(slo.Windows))
		}
		if o.Name == "budget-residual-zero" && !o.Healthy {
			t.Errorf("budget-residual-zero unhealthy: %+v", o)
		}
	}

	var fedView obs.FederatedSnapshot
	if code := get("/api/v1/federation", &fedView); code != http.StatusOK {
		t.Fatalf("/api/v1/federation = %d", code)
	}
	if len(fedView.Sources) != len(reportingTypes) {
		t.Errorf("federated sources = %d, want %d", len(fedView.Sources), len(reportingTypes))
	}
}

// TestChaosFederatedSnapshotDegradedShard is the observability chaos
// contract: a fault that degrades one shard (a dropped consumption
// frame → one substituted household) is visible in the federated
// snapshot under that shard's source, in the /api/v1/shards health
// table, and in the day status — while the settled bytes and the
// deterministic portion of the federated view stay bit-identical
// between the serial reference run and a parallel one.
func TestChaosFederatedSnapshotDegradedShard(t *testing.T) {
	// 64 households over 8 shards → 8 per shard. Shard 3's per-link
	// stream on day 1: requests 0–7, preferences 8–15, allocations
	// 16–23, consumptions 24–31 — dropping 24 substitutes exactly one
	// household. The trailing metricsReport (index 40) is untouched.
	type result struct {
		bytes  []byte
		fed    obs.FederatedSnapshot
		shards []obs.ShardStatus
		day    obs.DayStatus
	}
	run := func(workers int, codec string) result {
		plan := &FaultPlan{Actions: map[int]FaultAction{24: FaultDrop}}
		cluster := buildCluster(t, 64,
			WithShards(8),
			WithWorkers(workers),
			WithCodec(codec),
			WithTraceSeed(5),
			WithMetricsReporting(true),
			WithShardFaultPlan(3, plan),
		)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for day := 1; day <= 2; day++ {
			rec, err := cluster.ClusterDay(context.Background(), day)
			if err != nil {
				t.Fatalf("workers=%d day %d: %v", workers, day, err)
			}
			if day == 1 {
				if rec.Shards[3].Substituted != 1 || rec.Shards[3].Err != "" {
					t.Fatalf("workers=%d shard 3 day 1: %+v, want 1 substitution, no error", workers, rec.Shards[3])
				}
				st := cluster.ShardStatuses()
				if len(st) != 8 || !st[3].Healthy || st[3].Substituted != 1 {
					t.Fatalf("workers=%d shard table after day 1: %+v", workers, st)
				}
				if ds := cluster.DayStatus(); ds.Dark != 1 {
					t.Errorf("workers=%d day status dark = %d, want 1", workers, ds.Dark)
				}
			}
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		return result{buf.Bytes(), cluster.Federation().Snapshot(), cluster.ShardStatuses(), cluster.DayStatus()}
	}

	serial := run(1, CodecJSON)
	if len(serial.fed.Sources) != 8 {
		t.Fatalf("federated sources = %d, want 8", len(serial.fed.Sources))
	}
	degraded, ok := serial.fed.Sources["shard/0003"]
	if !ok {
		t.Fatal("shard/0003 missing from federation")
	}
	if got := degraded.Counters[obs.MetricClusterSubstitutionsTotal]; got != 1 {
		t.Errorf("shard/0003 substitutions = %d, want 1 (day 1's dropped consumption)", got)
	}
	for s := 0; s < 8; s++ {
		if s == 3 {
			continue
		}
		src := serial.fed.Sources[fmt.Sprintf("shard/%04d", s)]
		if got := src.Counters[obs.MetricClusterSubstitutionsTotal]; got != 0 {
			t.Errorf("healthy shard %d shows %d substitutions", s, got)
		}
	}
	if got := serial.fed.Merged.Counters[obs.MetricClusterHouseholdsSettled]; got != 128 {
		t.Errorf("merged households settled = %d, want 128 (64 × 2 days)", got)
	}
	if got := serial.fed.Merged.Counters[obs.MetricClusterShardsSettled]; got != 16 {
		t.Errorf("merged shards settled = %d, want 16", got)
	}

	// Workers:4 must match, and so must the binary codec, which carries
	// the reports in its own fields rather than as JSON.
	for _, other := range []struct {
		name string
		res  result
	}{
		{"Workers:4", run(4, CodecJSON)},
		{"Workers:4 over the binary codec", run(4, CodecBinary)},
	} {
		if !bytes.Equal(serial.bytes, other.res.bytes) {
			t.Errorf("settled bytes differ between Workers:1 and %s with reporting on", other.name)
		}
		if diffs := serial.fed.Merged.DiffDeterministic(other.res.fed.Merged); len(diffs) > 0 {
			t.Errorf("federated merge differs between Workers:1 and %s: %v", other.name, diffs)
		}
		for name, src := range serial.fed.Sources {
			if diffs := src.DiffDeterministic(other.res.fed.Sources[name]); len(diffs) > 0 {
				t.Errorf("source %s differs between Workers:1 and %s: %v", name, other.name, diffs)
			}
		}
	}
}
