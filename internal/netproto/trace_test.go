package netproto

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/obs"
)

// traceTestTypes is a small seeded neighborhood for the trace tests.
var traceTestTypes = []core.Type{
	{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
	{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
	{True: core.MustPreference(19, 24, 3), ValuationFactor: 6},
}

// dialTruthful connects one truthful agent per type and waits for all
// registrations.
func dialTruthful(t *testing.T, c *Center) []*Agent {
	t.Helper()
	agents := make([]*Agent, len(traceTestTypes))
	for i, typ := range traceTestTypes {
		a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		t.Cleanup(func() { a.Close() })
	}
	if err := waitForAgents(c, len(traceTestTypes), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return agents
}

// waitForHistories blocks until every agent has observed n settlements.
func waitForHistories(t *testing.T, agents []*Agent, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, a := range agents {
		for len(a.History()) < n && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if len(a.History()) < n {
			t.Fatalf("agent %d observed %d settlements, want %d", a.ID(), len(a.History()), n)
		}
	}
}

// TestDayCycleOneConnectedTrace is the acceptance check for the
// hierarchical tracing slice: a seeded day over loopback must yield ONE
// connected trace — a shared deterministic trace ID, a root day span,
// center-side phase spans under it, and agent-side spans parented under
// the phase spans across the process (here: connection) boundary.
func TestDayCycleOneConnectedTrace(t *testing.T) {
	tr := obs.DefaultTracer()
	tr.Drain() // discard anything earlier tests left behind
	tr.Enable()
	t.Cleanup(func() {
		tr.Disable()
		tr.Drain()
	})

	const seed = 42
	c := newTestCenter(t, WithTraceSeed(seed))
	agents := dialTruthful(t, c)

	record, err := c.RunDayContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	waitForHistories(t, agents, 1) // agent payment spans end asynchronously

	wantTID := obs.DeriveTraceID(seed, 1)
	if record.TraceID != wantTID {
		t.Fatalf("record trace ID %q, want %q", record.TraceID, wantTID)
	}

	spans := tr.Drain()
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}
	byID := make(map[string]obs.Span, len(spans))
	var root *obs.Span
	counts := map[string]int{}
	for i, s := range spans {
		if s.TraceID != wantTID {
			t.Fatalf("span %s in trace %q, want every span in %q", s.Name, s.TraceID, wantTID)
		}
		if s.SpanID == "" {
			t.Fatalf("span %s has no span ID", s.Name)
		}
		if s.ParentID == "" {
			if root != nil {
				t.Fatalf("two root spans: %s and %s", root.Name, s.Name)
			}
			root = &spans[i]
		}
		byID[s.SpanID] = s
		counts[s.Name]++
	}
	if root == nil || root.Name != obs.SpanNetDay {
		t.Fatalf("root span = %+v, want a %s span", root, obs.SpanNetDay)
	}
	// One day span, preference + consumption + payment phases, one
	// settle span, and one agent span per household per phase.
	if counts[obs.SpanNetDay] != 1 || counts[obs.SpanNetPhase] != 3 || counts[obs.SpanNetSettle] != 1 {
		t.Errorf("center span counts %v, want 1 day / 3 phase / 1 settle", counts)
	}
	if want := 3 * len(traceTestTypes); counts[obs.SpanNetAgentPhase] != want {
		t.Errorf("%d agent spans, want %d", counts[obs.SpanNetAgentPhase], want)
	}
	for _, s := range spans {
		if s.ParentID == "" {
			continue
		}
		parent, ok := byID[s.ParentID]
		if !ok {
			t.Errorf("span %s (%s) has parent %s not in the trace", s.Name, s.SpanID, s.ParentID)
			continue
		}
		switch s.Name {
		case obs.SpanNetPhase, obs.SpanNetSettle:
			if parent.Name != obs.SpanNetDay {
				t.Errorf("%s parented under %s, want %s", s.Name, parent.Name, obs.SpanNetDay)
			}
		case obs.SpanNetAgentPhase:
			if parent.Name != obs.SpanNetPhase {
				t.Errorf("agent span parented under %s, want %s", parent.Name, obs.SpanNetPhase)
			}
		}
	}
}

// TestShardDayOneConnectedTrace: a traced shard day traces like a TCP
// day (TestDayCycleOneConnectedTrace) — one cluster.shard root in the
// shard's trace, with the preference, consumption and payment phase
// spans and one settle span as its children.
func TestShardDayOneConnectedTrace(t *testing.T) {
	tr := obs.DefaultTracer()
	tr.Drain()
	tr.Enable()
	t.Cleanup(func() {
		tr.Disable()
		tr.Drain()
	})

	const seed = 42
	cluster := buildCluster(t, 12, WithShards(1), WithTraceSeed(seed))
	rec, err := cluster.ClusterDay(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTID := obs.DeriveTraceID(seed, 1, 0)
	if rec.Shards[0].TraceID != wantTID {
		t.Fatalf("shard trace ID %q, want %q", rec.Shards[0].TraceID, wantTID)
	}

	spans := tr.Drain()
	var root *obs.Span
	for i, s := range spans {
		if s.TraceID != wantTID {
			t.Fatalf("span %s in trace %q, want every span in %q", s.Name, s.TraceID, wantTID)
		}
		if s.ParentID == "" {
			if root != nil {
				t.Fatalf("two root spans: %s and %s", root.Name, s.Name)
			}
			root = &spans[i]
		}
	}
	if root == nil || root.Name != obs.SpanClusterShard {
		t.Fatalf("root span = %+v, want a %s span", root, obs.SpanClusterShard)
	}
	var children []string
	for _, s := range spans {
		if s.ParentID == "" {
			continue
		}
		if s.ParentID != root.SpanID {
			t.Errorf("span %s parented under %s, want the %s root", s.Name, s.ParentID, obs.SpanClusterShard)
		}
		name := s.Name
		for i := 0; i+1 < len(s.Labels); i += 2 {
			if s.Labels[i] == obs.LabelPhase {
				name += " " + s.Labels[i+1]
			}
		}
		children = append(children, name)
	}
	sort.Strings(children)
	want := []string{
		obs.SpanNetPhase + " " + string(KindConsumption),
		obs.SpanNetPhase + " " + string(KindPayment),
		obs.SpanNetPhase + " " + string(KindPreference),
		obs.SpanNetSettle,
	}
	if strings.Join(children, ",") != strings.Join(want, ",") {
		t.Errorf("root children %v, want %v", children, want)
	}
}

// TestClusterDayExemplarIsSlowestShard: a cluster day's day-settle
// latency exemplar is the trace of its slowest shard — a trace the
// shards' spans carry, since the cluster day has none of its own.
func TestClusterDayExemplarIsSlowestShard(t *testing.T) {
	obs.Default().Reset()
	tr := obs.DefaultTracer()
	tr.Drain()
	tr.Enable()
	t.Cleanup(func() {
		tr.Disable()
		tr.Drain()
	})

	cluster := buildCluster(t, 40, WithShards(4), WithTraceSeed(9))
	if _, err := cluster.ClusterDay(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	rows := cluster.ShardStatuses()
	slowest := rows[0]
	for _, r := range rows[1:] {
		if r.LastSettleMS > slowest.LastSettleMS {
			slowest = r
		}
	}
	ex := obs.Default().Histogram(obs.MetricNetDaySettleMS, obs.LatencyBucketsMS).Exemplars()
	if len(ex) != 1 || ex[0].TraceID != slowest.TraceID {
		t.Fatalf("day-settle exemplars %+v, want the slowest shard's trace %q", ex, slowest.TraceID)
	}
	traced := false
	for _, s := range tr.Drain() {
		traced = traced || s.TraceID == ex[0].TraceID
	}
	if !traced {
		t.Errorf("no span carries the exemplar trace %q", ex[0].TraceID)
	}
}

// TestTraceIdentitiesReproducible runs the same seeded day on two
// independent center/agent sets and requires identical span identity
// multisets: trace and span IDs are derived, never random, so replays
// name the same spans.
func TestTraceIdentitiesReproducible(t *testing.T) {
	runOnce := func() []string {
		tr := obs.DefaultTracer()
		tr.Drain()
		tr.Enable()
		defer tr.Disable()

		c := newTestCenter(t, WithTraceSeed(7))
		defer c.Close()
		agents := dialTruthful(t, c)
		if _, err := c.RunDayContext(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		waitForHistories(t, agents, 1)
		return tr.Identities()
	}

	first := runOnce()
	second := runOnce()
	if len(first) == 0 {
		t.Fatal("no span identities collected")
	}
	if len(first) != len(second) {
		t.Fatalf("identity counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("identity %d differs:\n  %s\n  %s", i, first[i], second[i])
		}
	}
}

// TestLedgerDeterministicBytesAndAudit runs the same seeded days on two
// independent centers writing audit ledgers, and requires (a) byte-
// identical ledger files and (b) a clean Eq. 4–7 audit of every entry.
func TestLedgerDeterministicBytesAndAudit(t *testing.T) {
	runOnce := func() *bytes.Buffer {
		var buf bytes.Buffer
		c := newTestCenter(t, WithTraceSeed(99), WithLedger(NewJournal(&buf)))
		defer c.Close()
		dialTruthful(t, c)
		for day := 1; day <= 3; day++ {
			if _, err := c.RunDayContext(context.Background(), day); err != nil {
				t.Fatalf("day %d: %v", day, err)
			}
		}
		return &buf
	}

	first := runOnce()
	second := runOnce()
	if first.Len() == 0 {
		t.Fatal("empty ledger")
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("ledger bytes differ between identical seeded runs")
	}

	entries, err := mechanism.ReadLedger(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("ledger has %d entries, want 3", len(entries))
	}
	for _, e := range entries {
		if e.TraceID != obs.DeriveTraceID(99, uint64(e.Day)) {
			t.Errorf("day %d ledger entry trace ID %q not the derived day trace", e.Day, e.TraceID)
		}
		if bad := e.Audit(); len(bad) != 0 {
			t.Errorf("day %d audit found mismatches: %v", e.Day, bad)
		}
	}
}
