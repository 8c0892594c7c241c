package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/netproto"
)

// smallConfig shrinks a workload's population so a run takes about a
// second; everything else about the workload stays as benchmarked.
func smallConfig(t *testing.T, workload string, traced bool) runConfig {
	t.Helper()
	cfg, err := defaultConfig(workload, 7, 300*time.Millisecond, traced, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	switch workload {
	case "city":
		cfg.shape.households, cfg.shape.shards = 2_000, 8
	case "streets":
		cfg.shape.households, cfg.shape.shards = 300, 10
	case "quorum":
		cfg.shape.setDays = cfg.shape.killDay + 10
	}
	cfg.setups = 2
	return cfg
}

// namedMetrics lists every metric the benchmark is specified to print,
// with its unit and the workloads it applies to.
var namedMetrics = []struct {
	name, unit string
	traced     bool
	workloads  []string
}{
	{"day_ms.p50", "ms", false, all},
	{"day_ms.p90", "ms", false, all},
	{"households_per_s", "1/s", false, all},
	{"setup_s", "s", false, all},
	{"peak_rss_mb", "MB", false, all},
	{"wire_bytes_per_household", "B", false, all},
	{"ledger_bytes_per_household", "B", false, []string{"streets", "quorum"}},
	{"failover_ms", "ms", false, []string{"quorum"}},
	{"settle_fail_frac", "ratio", false, all},

	{"sched.busy_ms", "ms", true, all},
	{"sched.us_per_household", "us", true, all},
	{"sched.allocs_per_household", "count", true, all},
	{"sched.deferred_households", "count", true, all},
	{"mechanism.settle_ms", "ms", true, all},
	{"mechanism.ledger_entry_ms", "ms", true, []string{"streets", "quorum"}},
	{"mechanism.allocs_per_household", "count", true, all},
	{"codec.encode_ms", "ms", true, all},
	{"codec.decode_ms", "ms", true, all},
	{"codec.decode_allocs_per_msg", "count", true, all},
	{"codec.frames_per_day", "count", true, all},
	{"codec.msgs_per_frame", "count", true, all},
	{"codec.bytes_per_msg", "B", true, all},
	{"cluster.shard_ms.mean", "ms", true, []string{"city", "streets"}},
	{"cluster.shard_ms.max", "ms", true, []string{"city", "streets"}},
	{"cluster.worker_busy_frac", "ratio", true, []string{"city", "streets"}},
	{"cluster.merge_ms", "ms", true, []string{"city", "streets"}},
	{"cluster.unexplained_frac", "ratio", true, []string{"city", "streets"}},
	{"journal.write_ms", "ms", true, []string{"streets", "quorum"}},
	{"journal.append_ms", "ms", true, []string{"streets", "quorum"}},
	{"journal.bytes_per_day", "B", true, []string{"streets", "quorum"}},
	{"obs.federation_ms", "ms", true, []string{"streets"}},
	{"obs.snapshot_bytes", "B", true, []string{"streets"}},
	{"obs.federation_reports", "count", true, []string{"streets"}},
	{"center.phase_ms.request", "ms", true, []string{"quorum"}},
	{"center.phase_ms.allocation", "ms", true, []string{"quorum"}},
	{"center.phase_ms.settle", "ms", true, []string{"quorum"}},
	{"center.collect_ms.preference", "ms", true, []string{"quorum"}},
	{"center.collect_ms.consumption", "ms", true, []string{"quorum"}},
	{"center.msgs_per_day", "count", true, []string{"quorum"}},
	{"center.retries", "count", true, []string{"quorum"}},
	{"center.resumes", "count", true, []string{"quorum"}},
	{"center.timeouts", "count", true, []string{"quorum"}},
	{"replica.overhead_ms.day", "ms", true, []string{"quorum"}},
	{"replica.overhead_ms.allocation", "ms", true, []string{"quorum"}},
	{"replica.overhead_ms.settle", "ms", true, []string{"quorum"}},
	{"replica.round_trip_us", "us", true, []string{"quorum"}},
	{"replica.log_entries", "count", true, []string{"quorum"}},
	{"replica.takeover_ms", "ms", true, []string{"quorum"}},
	{"replica.reconnect_ms", "ms", true, []string{"quorum"}},
	{"replica.failovers", "count", true, []string{"quorum"}},
	{"gc.cycles_per_day", "count", true, all},
	{"gc.pause_ms_per_day", "ms", true, all},
	{"gc.alloc_bytes_per_household", "B", true, all},
	{"gc.mallocs_per_household", "count", true, all},
	{"trace.overhead_ms", "ms", true, all},
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// runSmall runs a small workload and returns its printed output.
func runSmall(t *testing.T, cfg runConfig) (*result, string) {
	t.Helper()
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s (traced %v): %v", cfg.workload, cfg.traced, err)
	}
	var out bytes.Buffer
	if err := res.write(&out, true); err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

func TestEveryNamedMetricIsPrintedWithItsUnit(t *testing.T) {
	for _, workload := range all {
		for _, traced := range []bool{false, true} {
			cfg := smallConfig(t, workload, traced)
			_, out := runSmall(t, cfg)
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var last resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", workload, err)
			}
			if !last.Correct || last.Attempted < 1 {
				t.Errorf("%s: result %+v", workload, last)
			}
			for _, m := range namedMetrics {
				if m.traced != traced || !contains(m.workloads, workload) {
					continue
				}
				row := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + `$`)
				if !row.MatchString(out) {
					t.Errorf("%s (traced %v): %s is not printed with unit %s", workload, traced, m.name, m.unit)
				}
			}
			for _, d := range catalogue(traced) {
				mv, ok := last.Metrics[d.name]
				if (traced || d.gated) != ok {
					t.Errorf("%s (traced %v): %s in JSON line = %v", workload, traced, d.name, ok)
				}
				if ok && mv.Unit != d.unit {
					t.Errorf("%s: %s unit %q, want %q", workload, d.name, mv.Unit, d.unit)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.out + "/spans-" + workload + "-seed7.jsonl"); err != nil {
					t.Errorf("%s: spans not written: %v", workload, err)
				}
			}
		}
	}
}

func TestGarbledNeighbourhoodCountsInSettleFailFrac(t *testing.T) {
	cfg := smallConfig(t, "streets", false)
	// A streets day sends 151 messages over each neighbourhood link (30
	// each of request, preference, allocation, consumption, payment, plus
	// the metrics report); index 151 is the first request of day 2, and
	// garbling it loses the whole request frame of neighbourhood 3.
	plan, err := netproto.ParseFaultPlan("garble@151")
	if err != nil {
		t.Fatal(err)
	}
	cfg.extra = []netproto.Option{netproto.WithShardFaultPlan(3, plan)}
	res, _ := runSmall(t, cfg)
	hood := int64(cfg.shape.households / cfg.shape.shards)
	if res.failed != hood {
		t.Errorf("failed = %d households, want neighbourhood 3's %d", res.failed, hood)
	}
	days := res.attempted / int64(cfg.shape.households)
	want := float64(hood) / float64(int64(cfg.shape.households)*days)
	if got := res.values["settle_fail_frac"]; got != want {
		t.Errorf("settle_fail_frac = %g, want %d/(%d×%d) = %g", got, hood, cfg.shape.households, days, want)
	}
}

// ledgerDay1 builds one audited ledger line for a two-household day.
func ledgerDay1(t *testing.T) []byte {
	t.Helper()
	h := hoodDay{traceID: "t1", reports: []core.Report{
		{ID: 0, Pref: core.Preference{Window: core.Interval{Begin: 8, End: 14}, Duration: 2}},
		{ID: 1, Pref: core.Preference{Window: core.Interval{Begin: 9, End: 12}, Duration: 3}},
	}}
	h.assigned = []core.Interval{{Begin: 8, End: 10}, {Begin: 9, End: 12}}
	h.consumed = h.assigned
	c, err := replaySettle(h)
	if err != nil {
		t.Fatal(err)
	}
	rp := &dayReplay{}
	e := rp.replayLedger(1, []hoodDay{h}, []chain{c})[0]
	line, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

func TestTamperedLedgerFailsTheRun(t *testing.T) {
	line := ledgerDay1(t)
	if err := auditDay(line, 1, 1); err != nil {
		t.Fatalf("untampered ledger: %v", err)
	}
	var e map[string]any
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatal(err)
	}
	e["households"].([]any)[0].(map[string]any)["payment"] = 1.5
	tampered, _ := json.Marshal(e)
	if err := auditDay(append(tampered, '\n'), 1, 1); err == nil || !strings.Contains(err.Error(), "Eq. 7") {
		t.Errorf("tampered payment: audit error %v, want an Eq. 7 mismatch", err)
	}
	// ReadLedger forgives a corrupt final line; the line count does not.
	truncated := append(append([]byte(nil), line...), line[:len(line)/2]...)
	if err := auditDay(truncated, 1, 2); err == nil {
		t.Error("truncated last line: want an error")
	}

	// Through the sink, as a run audits its kept days.
	sink, err := newLedgerSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Write(append(tampered, '\n')); err != nil {
		t.Fatal(err)
	}
	if _, err := sink.endDay(1, true); err != nil {
		t.Fatal(err)
	}
	sink.close()
	err = sink.auditKept("streets")
	var check *checkError
	if !errors.As(err, &check) || check.workload != "streets" || check.day != 1 || check.check != "ledger-audit" {
		t.Fatalf("auditKept = %v, want a ledger-audit failure naming streets, day 1", err)
	}
	if !strings.Contains(err.Error(), "workload streets: day 1: check ledger-audit failed") {
		t.Errorf("error %q does not name the workload, day and check", err)
	}
}

func TestChangedPaymentFailsTheRun(t *testing.T) {
	h := hoodDay{traceID: "t2", reports: []core.Report{
		{ID: 0, Pref: core.Preference{Window: core.Interval{Begin: 8, End: 14}, Duration: 2}},
		{ID: 1, Pref: core.Preference{Window: core.Interval{Begin: 9, End: 12}, Duration: 3}},
	}}
	h.assigned = []core.Interval{{Begin: 8, End: 10}, {Begin: 9, End: 12}}
	h.consumed = h.assigned
	c, err := replaySettle(h)
	if err != nil {
		t.Fatal(err)
	}
	rec := &netproto.DayRecord{Day: 5, Reports: h.reports, Payments: append([]float64(nil), c.payments...), Cost: c.cost}
	if unbilled, err := checkDayRecord("quorum", rec, 3, settlement.mech.Xi); err != nil || unbilled != 1 {
		t.Fatalf("intact record: unbilled %d, %v; want 1, nil", unbilled, err)
	}
	rec.Payments[1] += 0.01
	err = func() error { _, err := checkDayRecord("quorum", rec, 2, settlement.mech.Xi); return err }()
	var check *checkError
	if !errors.As(err, &check) || check.day != 5 || check.check != "theorem1" {
		t.Errorf("changed payment: %v, want a theorem1 failure on day 5", err)
	}

	cluster := &netproto.ClusterDayRecord{Day: 6, Households: 2, Settled: 2, Shards: []netproto.ShardDay{
		{Shard: 0, Households: 2, Settled: 2, Cost: c.cost, Revenue: c.payments[0] + c.payments[1] + 0.01},
	}}
	if _, err := checkClusterDay("city", cluster, settlement.mech.Xi); !errors.As(err, &check) || check.day != 6 {
		t.Errorf("changed neighbourhood revenue: %v, want a theorem1 failure on day 6", err)
	}

	// The traced replay catches a payment a household did not receive.
	h.paid = []netproto.PaymentDetail{{Amount: c.payments[0]}, {Amount: c.payments[1] + 0.01}}
	if err := samePayments(h, c); err == nil {
		t.Error("replay against a changed received payment: want an error")
	}
	if err := sameBytes("city", 2, "workers-1-identity", []byte(`{"a":1}`), []byte(`{"a":2}`)); err == nil {
		t.Error("differing day records: want an error")
	}
}
