package netproto

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/obs"
)

const centerGoldenPath = "testdata/center_golden.json"

// goldenPolicies is the TCP golden neighbourhood: the three truthful
// trace-test households plus one misreporter that defects every day.
func goldenPolicies() []Policy {
	out := make([]Policy, 0, len(traceTestTypes)+1)
	for _, typ := range traceTestTypes {
		out = append(out, &Truthful{Type: typ})
	}
	return append(out, &Misreporter{
		Type:     core.Type{True: core.MustPreference(18, 20, 2), ValuationFactor: 5},
		Reported: core.MustPreference(8, 12, 2),
	})
}

// connectSequentially connects one agent per policy, each Connect
// returning (welcome received) before the next dials, so session epochs
// and tokens are a fixed function of the household order.
func connectSequentially(t *testing.T, dial func(id core.HouseholdID, p Policy) (*Agent, error), policies []Policy) []*Agent {
	t.Helper()
	agents := make([]*Agent, len(policies))
	for i, p := range policies {
		a, err := dial(core.HouseholdID(i), p)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		t.Cleanup(func() { a.Close() })
	}
	return agents
}

// centerGoldenRun settles three fault-free days of a TCP center under
// codec and returns what the run emits, by name: the DayRecord JSON
// (one line per day), the audit ledger bytes, and the sent and received
// wire-counter deltas of the whole run, registration included.
func centerGoldenRun(t *testing.T, codec string) map[string]string {
	t.Helper()
	var ledger bytes.Buffer
	before := obs.Default().Snapshot()
	c, err := StartCenter("127.0.0.1:0", WithTraceSeed(13), WithCodec(codec),
		WithLedger(NewJournal(&ledger)), WithPhaseDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	policies := goldenPolicies()
	agents := connectSequentially(t, func(id core.HouseholdID, p Policy) (*Agent, error) {
		return Connect(context.Background(), c.Addr(), id, p)
	}, policies)
	if err := c.WaitForAgentsContext(context.Background(), len(agents)); err != nil {
		t.Fatal(err)
	}
	var records bytes.Buffer
	enc := json.NewEncoder(&records)
	const days = 3
	for day := 1; day <= days; day++ {
		rec, err := c.RunDayContext(context.Background(), day)
		if err != nil {
			t.Fatalf("%s day %d: %v", codec, day, err)
		}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	waitForHistories(t, agents, days)
	after := obs.Default().Snapshot()
	return map[string]string{
		"records":  records.String(),
		"ledger":   ledger.String(),
		"sent":     wireCounterDeltas(before, after, obs.DirectionSent),
		"received": wireCounterDeltas(before, after, obs.DirectionReceived),
	}
}

// replicaGoldenLog settles three fault-free days on a 3-replica set and
// renders the leader's committed log, one entry per line: kind, day,
// phase and the payload bytes every replica applies.
func replicaGoldenLog(t *testing.T) string {
	t.Helper()
	var ledger bytes.Buffer
	rs, err := StartReplicaSet(context.Background(), WithTraceSeed(13), WithReplicas(3),
		WithLedger(NewJournal(&ledger)), WithPhaseDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	agents := connectSequentially(t, func(id core.HouseholdID, p Policy) (*Agent, error) {
		return Connect(context.Background(), rs.Addr(), id, p, WithDialer(rs.Dialer()))
	}, goldenPolicies())
	if err := rs.WaitForAgentsContext(context.Background(), len(agents)); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= 3; day++ {
		if _, err := rs.RunDayContext(context.Background(), day); err != nil {
			t.Fatalf("replica day %d: %v", day, err)
		}
	}
	log := rs.nodes[rs.Leader()].log
	var b strings.Builder
	for _, e := range log.Entries()[:log.Commit()] {
		fmt.Fprintf(&b, "%s %d %s %s\n", e.Kind, e.Day, e.Phase, e.Data)
	}
	return b.String()
}

// TestCenterGoldenDigests pins the TCP center's settled output, its
// wire telemetry and the replica set's committed log across builds, the
// way TestClusterGoldenDigests pins the cluster: the committed digests
// come from an earlier build, so a changed record, ledger, wire count or
// replicated payload byte fails here. Regenerate with -update-golden
// only for a deliberate output change.
func TestCenterGoldenDigests(t *testing.T) {
	texts := map[string]map[string]string{} // run → name → emitted text
	for _, codec := range []string{CodecJSON, CodecBinary} {
		texts[codec] = centerGoldenRun(t, codec)
	}
	texts["replica"] = map[string]string{"log": replicaGoldenLog(t)}
	got := map[string]map[string]string{}
	for run, named := range texts {
		got[run] = map[string]string{}
		for name, text := range named {
			got[run][name] = digest(text)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(centerGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(centerGoldenPath)
	if err != nil {
		t.Fatalf("read golden digests: %v", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden digests: %v", err)
	}
	for run, digests := range got {
		for name, d := range digests {
			if d == want[run][name] {
				continue
			}
			t.Errorf("%s %s digest %s, want %s", run, name, d, want[run][name])
			t.Logf("%s %s:\n%s", run, name, texts[run][name])
		}
	}
}
