package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"enki/internal/obs"
)

// TestLoadSmallPopulation runs the harness end to end at toy scale with
// the determinism check on: budget identity, workers=1 equivalence, and
// the wire summary all exercised in one pass.
func TestLoadSmallPopulation(t *testing.T) {
	obs.Default().Reset()
	var out strings.Builder
	err := run([]string{
		"-households", "300", "-shards", "16", "-days", "2",
		"-workers", "4", "-check",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"enrolled 300 households in 16 shards",
		"day 1: settled",
		"day 2: settled",
		"determinism check passed",
		"wire:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestLoadBudgetHeldAfterReset pins the per-day budget check to the
// live registry: a violation the day machine counts after a Reset fails
// the day.
func TestLoadBudgetHeldAfterReset(t *testing.T) {
	obs.Default().Reset()
	defer obs.Default().Reset()
	before := budgetViolations()
	if err := budgetHeld(1, before); err != nil {
		t.Fatalf("clean day failed: %v", err)
	}
	obs.Default().Counter(obs.MetricMechBudgetViolations).Inc()
	if err := budgetHeld(1, before); err == nil {
		t.Fatal("budgetHeld passed a day counted off budget")
	}
}

// TestLoadJSONCodecAndSnapshot covers the JSON wire path and the -out
// metrics snapshot, which must include the per-codec byte series.
func TestLoadJSONCodecAndSnapshot(t *testing.T) {
	obs.Default().Reset()
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out strings.Builder
	err := run([]string{
		"-households", "64", "-shards", "8", "-codec", "json", "-batch", "16",
		"-out", path,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	found := false
	for k := range snap.Counters {
		if strings.HasPrefix(k, obs.MetricNetCodecBytesTotal) && strings.Contains(k, `codec="json"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot missing %s{codec=json} series; counters: %v",
			obs.MetricNetCodecBytesTotal, len(snap.Counters))
	}
}

// TestLoadOperatorPlane runs the harness with the operator API up and
// the post-run ops gate on, plus a federated-snapshot export: the day
// must settle, every SLO objective must be healthy, and the federation
// must hold one source per shard.
func TestLoadOperatorPlane(t *testing.T) {
	obs.Default().Reset()
	fedPath := filepath.Join(t.TempDir(), "federation.json")
	var out strings.Builder
	err := run([]string{
		"-households", "128", "-shards", "8", "-days", "2",
		"-ops", "127.0.0.1:0", "-ops-check", "-fed-out", fedPath,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"operator plane: http://127.0.0.1:",
		"ops-check: day 2 settled",
		"SLO objectives healthy",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	raw, err := os.ReadFile(fedPath)
	if err != nil {
		t.Fatal(err)
	}
	var fed obs.FederatedSnapshot
	if err := json.Unmarshal(raw, &fed); err != nil {
		t.Fatalf("federated snapshot not valid JSON: %v", err)
	}
	if len(fed.Sources) != 8 {
		t.Errorf("federated sources = %d, want one per shard", len(fed.Sources))
	}
	if got := fed.Merged.Counters[obs.MetricClusterHouseholdsSettled]; got != 256 {
		t.Errorf("merged households settled = %d, want 256 (128 × 2 days)", got)
	}
}

// TestLoadFlagValidation rejects nonsense before any work happens.
func TestLoadFlagValidation(t *testing.T) {
	for _, argv := range [][]string{
		{"-households", "0"},
		{"-shards", "0"},
		{"-shards", "10", "-households", "5"},
		{"-days", "0"},
		{"-codec", "carrier-pigeon"},
		{"-ops-check"},
		{"-fed-out", "fed.json"},
	} {
		var out strings.Builder
		if err := run(argv, &out); err == nil {
			t.Errorf("run(%v) accepted invalid flags", argv)
		}
	}
}

// TestLoadReplicatedWithLeaderKill drives the replicated wire mode:
// 40 households against 3 replicas, leader killed before day 2, the
// budget identity checked on every day including the failover one, and
// the set's operator plane gated after the last day.
func TestLoadReplicatedWithLeaderKill(t *testing.T) {
	obs.Default().Reset()
	var out strings.Builder
	err := run([]string{
		"-households", "40", "-days", "2", "-replicas", "3", "-kill-leader", "2",
		"-ops", "127.0.0.1:0", "-ops-check",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"enrolled 40 wire households against a 3-replica center (leader 0)",
		"day 1: settled 40 households",
		"day 2: killed leader 0 before settlement",
		"day 2: settled 40 households",
		"term 2",
		"replica set: 1 failovers, leader 1, term 2",
		"ops-check: day 2 settled",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestLoadReplicatedFlagValidation rejects cluster-only flags and
// nonsense kill schedules in replicated mode.
func TestLoadReplicatedFlagValidation(t *testing.T) {
	for _, argv := range [][]string{
		{"-replicas", "3", "-shards", "8"},
		{"-replicas", "3", "-check"},
		{"-replicas", "3", "-households", "40", "-ops", "127.0.0.1:0", "-fed-out", "fed.json"},
		{"-replicas", "3", "-fault-plan", "drop@3"},
		{"-replicas", "2", "-households", "10"},
		{"-replicas", "3", "-kill-leader", "5", "-days", "2"},
		{"-replicas", "3", "-households", "20000"},
		{"-kill-leader", "1"},
	} {
		var out strings.Builder
		if err := run(argv, &out); err == nil {
			t.Errorf("run(%v) accepted invalid flags", argv)
		}
	}
}
