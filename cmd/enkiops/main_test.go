package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/obs"
	"enki/internal/profile"
)

// startOpsCluster settles fault-injected days on a live 8-shard cluster
// and serves its operator plane on a loopback port, returning the
// address enkiops should scrape. Shard 3's link drops the first
// consumption frame of day 1 (index 24 of its 8-household stream), so
// the shard settles degraded with one substituted household.
func startOpsCluster(t *testing.T, days int) string {
	t.Helper()
	var ledgerBuf bytes.Buffer
	cluster, err := netproto.StartCluster(context.Background(),
		netproto.WithShards(8),
		netproto.WithTraceSeed(5),
		netproto.WithLedger(netproto.NewJournal(&ledgerBuf)),
		netproto.WithMetricsReporting(true),
		netproto.WithSLO(),
		netproto.WithShardFaultPlan(3, &netproto.FaultPlan{
			Actions: map[int]netproto.FaultAction{24: netproto.FaultDrop},
		}),
	)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	for i := 0; i < 64; i++ {
		p := gen.Draw()
		if err := cluster.Join(core.HouseholdID(i), &netproto.Truthful{Type: p.TypeWide()}); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	op := cluster.Operator()
	trig, err := obs.NewTrigger(obs.TriggerConfig{Dir: t.TempDir()}, obs.BundleSources{Operator: op})
	if err != nil {
		t.Fatalf("NewTrigger: %v", err)
	}
	op.Debug = trig
	srv, err := obs.ServeOperator("127.0.0.1:0", op)
	if err != nil {
		t.Fatalf("ServeOperator: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	op.SetReady(true)
	for day := 1; day <= days; day++ {
		if _, err := cluster.ClusterDay(context.Background(), day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	return srv.Addr()
}

// TestOpsOnceJSONAgainstLiveCluster is the acceptance path: one -once
// -json scrape of a live fault-injected 8-shard cluster returns the day
// status, the per-shard health table with the degraded shard visible,
// the ledger tail with every entry auditing clean, and the SLO burn
// rates.
func TestOpsOnceJSONAgainstLiveCluster(t *testing.T) {
	addr := startOpsCluster(t, 1)
	var out strings.Builder
	if err := run([]string{"-addr", addr, "-once", "-json"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep opsReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output not valid JSON: %v\n%s", err, out.String())
	}
	if !rep.Ready {
		t.Error("ready = false for a serving cluster")
	}
	if rep.Day.Phase != "settled" || rep.Day.DaysSettled != 1 {
		t.Errorf("day status %+v, want settled day 1", rep.Day)
	}
	if rep.Day.Dark != 1 {
		t.Errorf("dark = %d, want 1 (substituted household)", rep.Day.Dark)
	}
	if len(rep.Shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(rep.Shards))
	}
	for s, sh := range rep.Shards {
		if !sh.Healthy {
			t.Errorf("shard %d unhealthy: %+v", s, sh)
		}
		wantSub := 0
		if s == 3 {
			wantSub = 1
		}
		if sh.Substituted != wantSub {
			t.Errorf("shard %d substituted = %d, want %d", s, sh.Substituted, wantSub)
		}
		if math.Abs(sh.Residual) > 1e-9 {
			t.Errorf("shard %d residual %g, want 0 (Theorem 1)", s, sh.Residual)
		}
	}
	// The cluster writes one ledger entry per shard per day; the tail
	// default returns the last 5, all from the one settled day, each
	// auditing clean.
	if len(rep.Ledger) != 5 {
		t.Fatalf("ledger tail has %d entries, want 5 (default -ledger)", len(rep.Ledger))
	}
	for _, l := range rep.Ledger {
		if l.Day != 1 {
			t.Errorf("ledger entry for day %d, want 1", l.Day)
		}
		if len(l.Findings) != 0 {
			t.Errorf("ledger day %d audit findings %v, want none", l.Day, l.Findings)
		}
	}
	if rep.SLO == nil || len(rep.SLO.Objectives) != len(obs.DefaultObjectives()) {
		t.Fatalf("slo section %+v, want %d objectives", rep.SLO, len(obs.DefaultObjectives()))
	}
	for _, o := range rep.SLO.Objectives {
		if len(o.Burn) != len(rep.SLO.Windows) {
			t.Errorf("objective %s has %d burn windows, want %d", o.Name, len(o.Burn), len(rep.SLO.Windows))
		}
	}
	if rep.PAR <= 0 {
		t.Errorf("PAR = %g, want > 0 from the mechanism gauges", rep.PAR)
	}
	if rep.Bundle == nil {
		t.Fatal("bundle section absent though the target serves /api/v1/debug/bundle")
	}
	if rep.Bundle.Writes != 0 || rep.Bundle.Suppressed != 0 {
		t.Errorf("fresh trigger status %+v, want zero writes and suppressions", rep.Bundle)
	}
}

// TestOpsOnceTableRendersDegradedShard: the human table marks the
// degraded shard and prints the SLO and ledger sections.
func TestOpsOnceTableRendersDegradedShard(t *testing.T) {
	addr := startOpsCluster(t, 2)
	var out strings.Builder
	if err := run([]string{"-addr", addr, "-once"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"day 2 [settled] ready",
		"days settled 2",
		"shard", "slo:", "ledger tail:",
		"budget-residual-zero",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("table missing %q:\n%s", want, got)
		}
	}
	// Day 2 is fault-free (the plan names only index 24), so every
	// shard row reads ok; day 1's substitution still shows in the
	// ledger tail length.
	if !strings.Contains(got, "ok") {
		t.Errorf("table missing healthy shard rows:\n%s", got)
	}
	if strings.Count(got, "day ") < 2 {
		t.Errorf("ledger tail missing both settled days:\n%s", got)
	}
}

// TestOpsSLOExitBreach: a fault-injected day breaches the degraded-day
// objective, so -slo-exit turns the scrape into a nonzero exit naming
// the burning objective — the CI gate contract.
func TestOpsSLOExitBreach(t *testing.T) {
	addr := startOpsCluster(t, 1)
	var out strings.Builder
	err := run([]string{"-addr", addr, "-once", "-slo-exit"}, &out)
	if err == nil {
		t.Fatalf("run with -slo-exit succeeded against a breached target:\n%s", out.String())
	}
	if !errors.Is(err, errSLOUnhealthy) {
		t.Errorf("error %v, want errSLOUnhealthy", err)
	}
	if !strings.Contains(err.Error(), "degraded-day-rate") {
		t.Errorf("error %v does not name the burning objective", err)
	}
	// The snapshot still renders before the gate fires, so the operator
	// sees why the exit was nonzero.
	if !strings.Contains(out.String(), "BURNING") {
		t.Errorf("output missing the burning objective row:\n%s", out.String())
	}
}

// TestOpsSLOExitRequiresSurface: gating on a target that serves no
// /api/v1/slo is a misconfiguration, not a pass — the gate fails loudly
// instead of silently approving an unobserved service.
func TestOpsSLOExitRequiresSurface(t *testing.T) {
	cluster, err := netproto.StartCluster(context.Background(), netproto.WithShards(2))
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	srv, err := obs.ServeOperator("127.0.0.1:0", cluster.Operator())
	if err != nil {
		t.Fatalf("ServeOperator: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	var out strings.Builder
	err = run([]string{"-addr", srv.Addr(), "-once", "-slo-exit"}, &out)
	if err == nil {
		t.Fatal("run with -slo-exit succeeded against a target without an SLO surface")
	}
	if !errors.Is(err, errSLOUnhealthy) || !strings.Contains(err.Error(), "/api/v1/slo") {
		t.Errorf("error %v, want errSLOUnhealthy naming the missing surface", err)
	}
}

// TestOpsRenderBundleLine: the bundle status renders as one line — a
// placeholder until the first capture, then the full write/suppress
// counters with the last bundle's path and reason.
func TestOpsRenderBundleLine(t *testing.T) {
	rep := &opsReport{Ready: true, Bundle: &obs.BundleStatus{Suppressed: 2}}
	var out strings.Builder
	render(&out, rep)
	if !strings.Contains(out.String(), "bundles: none captured (2 suppressed, 0 errors)") {
		t.Errorf("empty-status line missing:\n%s", out.String())
	}

	rep.Bundle = &obs.BundleStatus{
		LastPath:   "/var/bundles/bundle-x.tar.gz",
		LastReason: "slo:degraded-day-rate",
		LastUnixNS: 1700000000 * int64(1e9),
		Writes:     3,
		Suppressed: 1,
	}
	out.Reset()
	render(&out, rep)
	got := out.String()
	for _, want := range []string{
		"bundles: 3 written, 1 suppressed, 0 errors",
		"/var/bundles/bundle-x.tar.gz",
		"slo:degraded-day-rate",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("bundle line missing %q:\n%s", want, got)
		}
	}
}

// TestOpsFlagValidation rejects nonsense and unreachable targets.
func TestOpsFlagValidation(t *testing.T) {
	for _, argv := range [][]string{
		{"-interval", "0s"},
		{"-ledger", "-1"},
		{"-ledger", fmt.Sprint(obs.MaxLedgerTail + 1)}, // the server answers 400 above its cap
	} {
		var out strings.Builder
		if err := run(argv, &out); err == nil {
			t.Errorf("run(%v) accepted invalid flags", argv)
		}
	}
	var out strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:1", "-once", "-timeout", "200ms"}, &out); err == nil {
		t.Error("run against a dead port succeeded")
	}
}

// TestOpsOnceJSONAgainstReplicaSet scrapes a live 3-replica settlement
// center after a leader kill: the replicas section must show the new
// leader, the bumped term, the failover count, and one row per replica.
func TestOpsOnceJSONAgainstReplicaSet(t *testing.T) {
	var ledgerBuf bytes.Buffer
	rs, err := netproto.StartReplicaSet(context.Background(),
		netproto.WithReplicas(3),
		netproto.WithTraceSeed(5),
		netproto.WithLedger(netproto.NewJournal(&ledgerBuf)),
	)
	if err != nil {
		t.Fatalf("StartReplicaSet: %v", err)
	}
	t.Cleanup(func() { rs.Close() })

	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
	}
	retry := netproto.RetryPolicy{MaxAttempts: 20, BaseDelay: 5e6, MaxDelay: 25e7, Multiplier: 2, Jitter: 0.2, Seed: 1}
	for i, typ := range types {
		a, err := netproto.Connect(context.Background(), rs.Addr(), core.HouseholdID(i), &netproto.Truthful{Type: typ},
			netproto.WithDialer(rs.Dialer()), netproto.WithRetryPolicy(retry))
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		t.Cleanup(func() { a.Close() })
	}
	if err := rs.WaitForAgentsContext(context.Background(), len(types)); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.RunDayContext(context.Background(), 1); err != nil {
		t.Fatalf("day 1: %v", err)
	}
	if err := rs.Kill(rs.Leader()); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.RunDayContext(context.Background(), 2); err != nil {
		t.Fatalf("day 2 after failover: %v", err)
	}

	op := rs.Operator()
	srv, err := obs.ServeOperator("127.0.0.1:0", op)
	if err != nil {
		t.Fatalf("ServeOperator: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	op.SetReady(true)

	var out strings.Builder
	if err := run([]string{"-addr", srv.Addr(), "-once", "-json"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep opsReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Replicas == nil {
		t.Fatal("replicas section absent though the target serves /api/v1/replicas")
	}
	r := rep.Replicas
	if r.Leader != 1 || r.Term != 2 || r.Failovers != 1 || !r.Quorum {
		t.Errorf("replicas = leader %d term %d failovers %d quorum %v, want leader 1 term 2 failovers 1 quorum true",
			r.Leader, r.Term, r.Failovers, r.Quorum)
	}
	if len(r.Replicas) != 3 {
		t.Fatalf("%d replica rows, want 3", len(r.Replicas))
	}
	if rep.Day.DaysSettled != 2 {
		t.Errorf("days settled = %d, want 2 (count survives failover)", rep.Day.DaysSettled)
	}

	// The table view renders the replica section too.
	out.Reset()
	if err := run([]string{"-addr", srv.Addr(), "-once"}, &out); err != nil {
		t.Fatalf("run table: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replicas: leader 1 term 2 quorum, 1 failovers") {
		t.Errorf("table missing replica summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "dead") || !strings.Contains(out.String(), "leader") {
		t.Errorf("table missing replica roles:\n%s", out.String())
	}
}

// TestOpsAuditFlagsTamperedLedger serves a ledger tail whose first line
// moves $1 from one household's bill to another's. Σp, and so
// Σp − ξ·κ, are unchanged; only the per-household Eq. 7 audit sees the
// move, and enkiops must show that day's two findings.
func TestOpsAuditFlagsTamperedLedger(t *testing.T) {
	journal := netproto.NewJournal(io.Discard)
	cluster, err := netproto.StartCluster(context.Background(),
		netproto.WithShards(2),
		netproto.WithLedger(journal),
	)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	for i := 0; i < 16; i++ {
		p := gen.Draw()
		if err := cluster.Join(core.HouseholdID(i), &netproto.Truthful{Type: p.TypeWide()}); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if _, err := cluster.ClusterDay(context.Background(), 1); err != nil {
		t.Fatalf("ClusterDay: %v", err)
	}
	lines := journal.LedgerTail(obs.MaxLedgerTail)
	if len(lines) != 2 {
		t.Fatalf("%d ledger lines, want 2", len(lines))
	}
	var e mechanism.LedgerEntry
	if err := json.Unmarshal(lines[0], &e); err != nil {
		t.Fatal(err)
	}
	e.Households[0].Payment++
	e.Households[1].Payment--
	if lines[0], err = e.AppendJSON(nil); err != nil {
		t.Fatal(err)
	}

	live := cluster.Operator()
	op := obs.NewOperator(live.Registry)
	op.Status = live.Status
	op.Ledger = fixedTail(lines)
	op.SetReady(true)
	srv, err := obs.ServeOperator("127.0.0.1:0", op)
	if err != nil {
		t.Fatalf("ServeOperator: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	var out strings.Builder
	if err := run([]string{"-addr", srv.Addr(), "-once", "-json"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep opsReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("output not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Ledger) != 2 {
		t.Fatalf("ledger tail has %d days, want 2", len(rep.Ledger))
	}
	if got := rep.Ledger[0].Findings; len(got) != 2 ||
		!strings.Contains(got[0], "Eq. 7 payment") || !strings.Contains(got[1], "Eq. 7 payment") {
		t.Errorf("tampered day findings %q, want two Eq. 7 payment mismatches", got)
	}
	if got := rep.Ledger[1].Findings; len(got) != 0 {
		t.Errorf("untouched day findings %q, want none", got)
	}

	out.Reset()
	if err := run([]string{"-addr", srv.Addr(), "-once"}, &out); err != nil {
		t.Fatalf("run table: %v\n%s", err, out.String())
	}
	for _, want := range []string{"audit 2 FINDINGS", "audit ok", "! household"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table missing %q:\n%s", want, out.String())
		}
	}
}

// fixedTail serves the same ledger lines for any tail length.
type fixedTail []json.RawMessage

func (l fixedTail) LedgerTail(int) []json.RawMessage { return l }
