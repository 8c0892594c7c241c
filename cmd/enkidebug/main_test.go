package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/obs"
	"enki/internal/profile"
)

// TestEnkidebugAcceptance is the issue's end-to-end triage contract: a
// fault-injected multi-shard day degrades one shard and breaches the
// degraded-day objective, the trigger writes exactly one rate-limited
// bundle, and enkidebug identifies the faulted shard while confirming
// that every bundled ledger entry audits clean — exit status clean.
func TestEnkidebugAcceptance(t *testing.T) {
	rec := obs.DefaultRecorder()
	rec.Reset()
	rec.Enable()
	defer func() {
		rec.Disable()
		rec.Reset()
	}()

	// Shard 3's link drops the first consumption reply: its household
	// settles via the imputed-defector substitution path, so the shard
	// degrades without failing and the day counts as degraded.
	plan := &netproto.FaultPlan{Actions: map[int]netproto.FaultAction{30: netproto.FaultDrop}}
	var ledgerBuf bytes.Buffer
	journal := netproto.NewJournal(&ledgerBuf)
	cluster, err := netproto.StartCluster(context.Background(),
		netproto.WithShards(8),
		netproto.WithBatchSize(4),
		netproto.WithShardFaultPlan(3, plan),
		netproto.WithSLO(),
		netproto.WithLedger(journal),
	)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cluster.Close()
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	for i := 0; i < 80; i++ {
		p := gen.Draw()
		if err := cluster.Join(core.HouseholdID(i), &netproto.Truthful{Type: p.TypeWide()}); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	dayRec, err := cluster.ClusterDay(context.Background(), 1)
	if err != nil {
		t.Fatalf("ClusterDay: %v", err)
	}
	if dayRec.Absent+dayRec.Substituted == 0 {
		t.Fatalf("fault plan did not degrade the day: %+v", dayRec)
	}
	shard3 := dayRec.Shards[3]
	if shard3.Err != "" || shard3.Absent+shard3.Substituted == 0 {
		t.Fatalf("shard 3 should degrade, not fail: err=%q absent=%d substituted=%d",
			shard3.Err, shard3.Absent, shard3.Substituted)
	}

	dir := t.TempDir()
	op := cluster.Operator()
	trig, err := obs.NewTrigger(obs.TriggerConfig{
		Dir:         dir,
		MinInterval: time.Hour, // the rate limit under test
	}, obs.BundleSources{
		Operator: op,
		Recorder: rec,
		Tracer:   obs.DefaultTracer(),
		Config:   map[string]string{"shards": "8", "households": "80"},
	})
	if err != nil {
		t.Fatalf("NewTrigger: %v", err)
	}

	// First breach check fires a bundle: the degraded day blows the 5%
	// degraded-day budget on its first sample.
	path, err := trig.CheckSLO(op.SampleSLO(time.Now()))
	if err != nil {
		t.Fatalf("CheckSLO: %v", err)
	}
	if path == "" {
		t.Fatal("SLO breach did not fire a bundle")
	}
	// The degraded shard would also fire — the rate limit must suppress
	// it so one incident yields one bundle.
	if p2, err := trig.CheckShards(cluster.ShardStatuses()); err != nil || p2 != "" {
		t.Fatalf("second trigger not suppressed: path=%q err=%v", p2, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var bundles []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tar.gz") {
			bundles = append(bundles, filepath.Join(dir, e.Name()))
		}
	}
	if len(bundles) != 1 {
		t.Fatalf("bundle files = %d, want exactly 1 (rate-limited)", len(bundles))
	}
	st := trig.Status()
	if st.Writes != 1 || st.Suppressed < 1 {
		t.Fatalf("trigger status = %+v, want 1 write and ≥1 suppression", st)
	}
	if !strings.HasPrefix(st.LastReason, "slo:") {
		t.Fatalf("bundle reason %q, want an SLO breach", st.LastReason)
	}

	// The offline analyzer must implicate shard 3 from the bundle alone
	// and confirm the ledger audits clean (exit 0 — run returns nil, in
	// particular not errAudit).
	var out bytes.Buffer
	if err := run([]string{bundles[0]}, &out); err != nil {
		t.Fatalf("enkidebug: %v\n%s", err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "shard 3 DEGRADED") {
		t.Errorf("report does not implicate shard 3:\n%s", report)
	}
	if !strings.Contains(report, "degraded-day-rate") {
		t.Errorf("report does not name the breached objective:\n%s", report)
	}
	if !strings.Contains(report, ": OK") || strings.Contains(report, "FINDINGS") {
		t.Errorf("report does not confirm a clean ledger audit:\n%s", report)
	}

	// The JSON form carries the same verdicts for machine consumers.
	out.Reset()
	if err := run([]string{"-json", bundles[0]}, &out); err != nil {
		t.Fatalf("enkidebug -json: %v", err)
	}
	var rep triageReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("decode JSON report: %v", err)
	}
	if auditFindings(rep.Audit) != 0 {
		t.Errorf("JSON report has audit findings: %+v", rep.Audit)
	}
	if len(rep.Audit) == 0 {
		t.Error("JSON report audited no ledger entries")
	}
	found := false
	for _, sh := range rep.Shards {
		if sh.Shard == 3 && sh.State == "degraded" {
			found = true
		}
	}
	if !found {
		t.Errorf("JSON report does not implicate shard 3: %+v", rep.Shards)
	}
}

// TestEnkidebugBadInput: a missing or corrupt bundle is a usage error
// (exit 1 path), never an audit verdict.
func TestEnkidebugBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{filepath.Join(t.TempDir(), "nope.tar.gz")}, &out); err == nil {
		t.Fatal("missing bundle accepted")
	}
	if err := run([]string{}, &out); err == nil {
		t.Fatal("no arguments accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.tar.gz")
	if err := os.WriteFile(bad, []byte("not a tarball"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil {
		t.Fatal("corrupt bundle accepted")
	}
}

// TestEnkidebugAuditFlagsTamperedLedger bundles a ledger tail whose
// first line moves $1 from one household's bill to another's. Σp, and
// so Σp − ξ·κ, are unchanged; only the per-household Eq. 7 audit sees
// the move. enkidebug must exit 2 (errAudit), name both mismatches, and
// rank the finding as the top probable cause.
func TestEnkidebugAuditFlagsTamperedLedger(t *testing.T) {
	lines := clusterLedgerLines(t)
	var e mechanism.LedgerEntry
	if err := json.Unmarshal(lines[0], &e); err != nil {
		t.Fatal(err)
	}
	e.Households[0].Payment++
	e.Households[1].Payment--
	var err error
	if lines[0], err = e.AppendJSON(nil); err != nil {
		t.Fatal(err)
	}
	path := ledgerOnlyBundle(t, lines)

	var out bytes.Buffer
	err = run([]string{path}, &out)
	if !errors.Is(err, errAudit) {
		t.Fatalf("enkidebug error %v, want errAudit (exit 2)\n%s", err, out.String())
	}
	report := out.String()
	for _, id := range []core.HouseholdID{e.Households[0].ID, e.Households[1].ID} {
		if want := fmt.Sprintf("household %d: Eq. 7 payment", id); !strings.Contains(report, want) {
			t.Errorf("report does not name %q:\n%s", want, report)
		}
	}
	if !strings.Contains(report, "2 entries: 2 FINDINGS") {
		t.Errorf("report does not count the findings:\n%s", report)
	}

	out.Reset()
	if err := run([]string{"-json", path}, &out); !errors.Is(err, errAudit) {
		t.Fatalf("enkidebug -json error %v, want errAudit", err)
	}
	var rep triageReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("decode JSON report: %v", err)
	}
	if len(rep.Audit) != 2 || len(rep.Audit[0].Findings) != 2 || len(rep.Audit[1].Findings) != 0 {
		t.Fatalf("JSON audit %+v, want 2 entries and 2 findings on the first", rep.Audit)
	}
	if d := rep.Audit[0]; d.Day != e.Day || d.TraceID != e.TraceID {
		t.Errorf("audited day %+v, want day %d trace %s", d, e.Day, e.TraceID)
	}
	if len(rep.Causes) == 0 || !strings.HasPrefix(rep.Causes[0].Text, "ledger audit failed") {
		t.Errorf("top cause %+v, want the ledger audit", rep.Causes)
	}
}

// TestEnkidebugLedgerOnlyBundle: a bundle that holds a clean ledger
// but no shard status or SLO report exits 0 and says so; it names no
// day and claims no shard or SLO health.
func TestEnkidebugLedgerOnlyBundle(t *testing.T) {
	path := ledgerOnlyBundle(t, clusterLedgerLines(t))
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatalf("enkidebug: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"day      unknown: the bundle holds no shard status",
		"2 entries: OK",
		"no anomalies: ledger audits clean; the bundle holds no shard status, SLO report",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	for _, claim := range []string{"day      -1", "implicated shards", "settled healthy", "shards healthy", "SLOs met"} {
		if strings.Contains(report, claim) {
			t.Errorf("report claims %q without the status to show it:\n%s", claim, report)
		}
	}
}

// clusterLedgerLines settles one day of 16 households on a two-shard
// cluster and returns its two ledger lines.
func clusterLedgerLines(t *testing.T) []json.RawMessage {
	t.Helper()
	journal := netproto.NewJournal(io.Discard)
	cluster, err := netproto.StartCluster(context.Background(),
		netproto.WithShards(2),
		netproto.WithLedger(journal),
	)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cluster.Close()
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
	return lines
}

// ledgerOnlyBundle fires a bundle whose only operator source is a
// ledger tail of lines, and returns its path.
func ledgerOnlyBundle(t *testing.T, lines []json.RawMessage) string {
	t.Helper()
	op := obs.NewOperator(nil)
	op.Ledger = fixedTail(lines)
	trig, err := obs.NewTrigger(obs.TriggerConfig{Dir: t.TempDir()}, obs.BundleSources{Operator: op})
	if err != nil {
		t.Fatalf("NewTrigger: %v", err)
	}
	path, err := trig.Fire("manual")
	if err != nil {
		t.Fatalf("Fire: %v", err)
	}
	return path
}

// fixedTail serves the same ledger lines for any tail length.
type fixedTail []json.RawMessage

func (l fixedTail) LedgerTail(int) []json.RawMessage { return l }
