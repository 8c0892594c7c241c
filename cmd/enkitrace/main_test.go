package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/obs"
)

// runSettlementDay runs a seeded day cycle over loopback with tracing
// and the audit ledger on, and returns the trace and ledger file paths.
func runSettlementDay(t *testing.T, seed uint64, days int) (tracePath, ledgerPath string) {
	t.Helper()
	tr := obs.DefaultTracer()
	tr.Drain()
	tr.Enable()
	t.Cleanup(func() {
		tr.Disable()
		tr.Drain()
	})

	dir := t.TempDir()
	ledgerPath = filepath.Join(dir, "audit.jsonl")
	ledgerFile, err := os.Create(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ledgerFile.Close()

	center, err := netproto.StartCenter("127.0.0.1:0", netproto.WithPhaseDeadline(5*time.Second),
		netproto.WithTraceSeed(seed), netproto.WithLedger(netproto.NewJournal(ledgerFile)))
	if err != nil {
		t.Fatal(err)
	}
	defer center.Close()

	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
		{True: core.MustPreference(19, 24, 3), ValuationFactor: 6},
	}
	agents := make([]*netproto.Agent, len(types))
	for i, typ := range types {
		a, err := netproto.Connect(context.Background(), center.Addr(), core.HouseholdID(i), &netproto.Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		defer a.Close()
	}
	if err := waitForAgents(center, len(types), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= days; day++ {
		if _, err := center.RunDayContext(context.Background(), day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
	// Agent-side payment spans end asynchronously after RunDay returns.
	deadline := time.Now().Add(5 * time.Second)
	for _, a := range agents {
		for len(a.History()) < days && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if len(a.History()) < days {
			t.Fatalf("agent %d observed %d settlements, want %d", a.ID(), len(a.History()), days)
		}
	}

	tracePath = filepath.Join(dir, "spans.jsonl")
	traceFile, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer traceFile.Close()
	if err := tr.WriteJSONL(traceFile); err != nil {
		t.Fatal(err)
	}
	return tracePath, ledgerPath
}

// TestAnalyzeSettlementDay is the acceptance test for the tracing +
// ledger + analyzer slice: a seeded day over loopback yields one
// connected trace and a clean equation-level audit, and enkitrace
// renders the per-phase breakdown and the day's critical path.
func TestAnalyzeSettlementDay(t *testing.T) {
	tracePath, ledgerPath := runSettlementDay(t, 42, 1)

	var out strings.Builder
	if err := run([]string{"-trace", tracePath, "-ledger", ledgerPath}, &out); err != nil {
		t.Fatalf("enkitrace failed: %v\n%s", err, out.String())
	}
	got := out.String()

	wantTID := obs.DeriveTraceID(42, 1)
	for _, want := range []string{
		"Per-phase latency",
		obs.SpanNetPhase + " " + string(netproto.KindPreference),
		obs.SpanNetPhase + " " + string(netproto.KindConsumption),
		obs.SpanNetPhase + " " + string(netproto.KindPayment),
		obs.SpanNetSettle,
		obs.SpanNetAgentPhase,
		"Critical path of trace " + wantTID,
		obs.SpanNetDay + " day=1",
		"audit: 0 mismatches in 1 entries",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The critical path must descend at least one hop below the root.
	if !strings.Contains(got, "100.0%") {
		t.Errorf("critical path missing root share:\n%s", got)
	}
}

func TestTraceIDFilter(t *testing.T) {
	tracePath, _ := runSettlementDay(t, 7, 2)

	day2 := obs.DeriveTraceID(7, 2)
	var out strings.Builder
	if err := run([]string{"-trace", tracePath, "-trace-id", day2}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Critical path of trace "+day2) {
		t.Errorf("filtered output missing day-2 trace:\n%s", out.String())
	}
	if day1 := obs.DeriveTraceID(7, 1); strings.Contains(out.String(), day1) {
		t.Errorf("filtered output still mentions day-1 trace %s:\n%s", day1, out.String())
	}

	if err := run([]string{"-trace", tracePath, "-trace-id", "ffffffffffffffff"}, &out); err == nil {
		t.Error("unknown trace ID should be an error")
	}
}

// TestAuditFlagsTamperedLedger corrupts a recorded payment and requires
// a nonzero exit: the Eq. 7 recompute and the Theorem 1 budget identity
// must both catch it.
func TestAuditFlagsTamperedLedger(t *testing.T) {
	_, ledgerPath := runSettlementDay(t, 13, 1)

	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := mechanism.ReadLedger(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1", len(entries))
	}
	entries[0].Households[0].Payment += 1.5 // skim a payment

	tampered := filepath.Join(t.TempDir(), "tampered.jsonl")
	f, err := os.Create(tampered)
	if err != nil {
		t.Fatal(err)
	}
	j := netproto.NewJournal(f)
	if err := j.AppendValue(entries[0]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out strings.Builder
	err = run([]string{"-ledger", tampered}, &out)
	if err == nil {
		t.Fatalf("tampered ledger should fail the audit:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("unexpected error: %v", err)
	}
	if !strings.Contains(out.String(), "MISMATCH") {
		t.Errorf("audit output does not flag the mismatch:\n%s", out.String())
	}
}

// TestAuditAcceptsDegradedDayLedger is the degraded-settlement
// acceptance test: a day in which one household reports a preference
// and then goes permanently dark still yields a ledger that enkitrace
// audits cleanly (exit 0), with the substitution reported.
func TestAuditAcceptsDegradedDayLedger(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "degraded.jsonl")
	ledgerFile, err := os.Create(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ledgerFile.Close()

	center, err := netproto.StartCenter("127.0.0.1:0",
		netproto.WithPhaseDeadline(300*time.Millisecond),
		netproto.WithTraceSeed(21),
		netproto.WithLedger(netproto.NewJournal(ledgerFile)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer center.Close()

	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
	}
	for i, typ := range types {
		a, err := netproto.Connect(context.Background(), center.Addr(), core.HouseholdID(i), &netproto.Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	// Household 2 reports a preference and then never answers again.
	conn, err := net.Dial("tcp", center.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	darkPref := core.MustPreference(19, 24, 3)
	if err := sendJSON(conn, &netproto.Message{Kind: netproto.KindHello, ID: 2}); err != nil {
		t.Fatal(err)
	}
	if w, err := recvOne(conn); err != nil || w.Kind != netproto.KindWelcome {
		t.Fatalf("registration failed: %v %v", w, err)
	}
	go func() {
		for {
			m, err := recvOne(conn)
			if err != nil {
				return
			}
			if m.Kind == netproto.KindRequest {
				_ = sendJSON(conn, &netproto.Message{Kind: netproto.KindPreference, ID: 2, Day: m.Day, Pref: &darkPref})
			}
		}
	}()
	if err := waitForAgents(center, 3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := center.RunDayContext(context.Background(), 1); err != nil {
		t.Fatalf("degraded day should complete: %v", err)
	}

	var out strings.Builder
	if err := run([]string{"-ledger", ledgerPath}, &out); err != nil {
		t.Fatalf("degraded ledger should audit cleanly, got %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"1 dark household(s) settled as defectors from journaled reports",
		"degraded: 1 of 1 days settled with substituted households",
		"audit: 0 mismatches in 1 entries",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunRejectsNoInputs(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no inputs should be an error")
	}
	if err := run([]string{"-trace", filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Error("missing trace file should be an error")
	}
}

// TestAuditSurvivingReplicaLedger is the failover acceptance for the
// audit tool: a 3-replica center loses its leader between the ledger
// append and the commit broadcast, the day finishes under the new
// leader, and the surviving replica's journal still audits cleanly
// (exit 0) with one entry per day.
func TestAuditSurvivingReplicaLedger(t *testing.T) {
	rs, err := netproto.StartReplicaSet(context.Background(),
		netproto.WithReplicas(3),
		netproto.WithTraceSeed(33),
		netproto.WithPhaseDeadline(5*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
		{True: core.MustPreference(19, 24, 3), ValuationFactor: 6},
	}
	retry := netproto.RetryPolicy{
		MaxAttempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond,
		Multiplier: 2, Jitter: 0.2, Seed: 1,
	}
	for i, typ := range types {
		a, err := netproto.Connect(context.Background(), rs.Addr(), core.HouseholdID(i), &netproto.Truthful{Type: typ},
			netproto.WithDialer(rs.Dialer()), netproto.WithRetryPolicy(retry))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
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
	if rs.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", rs.Failovers())
	}

	survivor := rs.Leader()
	ledgerPath := filepath.Join(t.TempDir(), "survivor.jsonl")
	if err := os.WriteFile(ledgerPath, rs.ReplicaLedger(survivor), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-ledger", ledgerPath}, &out); err != nil {
		t.Fatalf("audit of surviving replica %d failed: %v\n%s", survivor, err, out.String())
	}
	if !strings.Contains(out.String(), "audit: 0 mismatches in 2 entries") {
		t.Errorf("unexpected audit summary:\n%s", out.String())
	}
}

// waitForAgents waits up to timeout for n agents to connect to c.
// sendJSON writes m as a one-message JSON batch frame, the framing a
// household registers in.
func sendJSON(conn net.Conn, m *netproto.Message) error {
	c, _ := netproto.LookupCodec(netproto.CodecJSON)
	return netproto.WriteBatch(conn, c, []*netproto.Message{m})
}

// recvOne reads one frame from the center, which carries one message.
func recvOne(conn net.Conn) (*netproto.Message, error) {
	msgs, err := netproto.ReadBatch(conn)
	if err != nil {
		return nil, err
	}
	if len(msgs) != 1 {
		return nil, fmt.Errorf("frame carries %d messages, want 1", len(msgs))
	}
	return msgs[0], nil
}

func waitForAgents(c *netproto.Center, n int, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.WaitForAgentsContext(ctx, n)
}
