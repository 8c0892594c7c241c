package netproto_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"regexp"
	"slices"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/pricing"
	"enki/internal/sched"
	"enki/internal/sim"
)

const diffDays = 3

var diffPricer = pricing.Quadratic{Sigma: pricing.DefaultSigma}

// diffPolicies is the differential neighbourhood: four truthful
// households plus a misreporter that claims a morning window, is
// allocated there, and defects to its true evening every day.
func diffPolicies() []netproto.Policy {
	return []netproto.Policy{
		&netproto.Truthful{Type: core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}},
		&netproto.Truthful{Type: core.Type{True: core.MustPreference(17, 23, 2), ValuationFactor: 4}},
		&netproto.Truthful{Type: core.Type{True: core.MustPreference(19, 24, 3), ValuationFactor: 6}},
		&netproto.Misreporter{
			Type:     core.Type{True: core.MustPreference(18, 20, 2), ValuationFactor: 5},
			Reported: core.MustPreference(8, 12, 2),
		},
		&netproto.Truthful{Type: core.Type{True: core.MustPreference(8, 14, 2), ValuationFactor: 2}},
	}
}

// diffRun is what one topology settled: a record per day, and the
// audit ledger when the topology writes one.
type diffRun struct {
	records []*netproto.DayRecord
	ledger  []byte
}

// diffRetry outlasts a leader takeover: every agent reconnects through
// the replica set's dialer and resumes on the new leader.
var diffRetry = netproto.RetryPolicy{MaxAttempts: 20, BaseDelay: 5 * time.Millisecond,
	MaxDelay: 250 * time.Millisecond, Multiplier: 2, Jitter: 0.2, Seed: 1}

// settleOpts are the settlement options every networked row shares: one
// nil-RNG greedy scheduler, the quadratic pricer, a seeded trace stream
// and an audit ledger.
func settleOpts(greedy sched.Scheduler, ledger *bytes.Buffer) []netproto.Option {
	return []netproto.Option{netproto.WithScheduler(greedy), netproto.WithPricer(diffPricer),
		netproto.WithTraceSeed(5), netproto.WithLedger(netproto.NewJournal(ledger))}
}

func runClusterRow(t *testing.T, greedy sched.Scheduler, codec string) diffRun {
	t.Helper()
	var ledger bytes.Buffer
	c, err := netproto.StartCluster(context.Background(), append(settleOpts(greedy, &ledger), netproto.WithCodec(codec))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, p := range diffPolicies() {
		if err := c.Join(core.HouseholdID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	var run diffRun
	for day := 1; day <= diffDays; day++ {
		rec, err := c.ClusterDay(context.Background(), day)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if rec.Shards[0].Err != "" {
			t.Fatalf("day %d: shard failed: %s", day, rec.Shards[0].Err)
		}
		run.records = append(run.records, rec.Shards[0].Record)
	}
	run.ledger = ledger.Bytes()
	return run
}

// dayRunner is a TCP topology: a center or a replica set.
type dayRunner interface {
	WaitForAgentsContext(ctx context.Context, n int) error
	RunDayContext(ctx context.Context, day int) (*netproto.DayRecord, error)
}

// runTCPRow connects the neighbourhood's agents one by one to addr
// and settles the differential days on r.
func runTCPRow(t *testing.T, r dayRunner, addr string, opts ...netproto.Option) []*netproto.DayRecord {
	t.Helper()
	policies := diffPolicies()
	for i, p := range policies {
		a, err := netproto.Connect(context.Background(), addr, core.HouseholdID(i), p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	if err := r.WaitForAgentsContext(context.Background(), len(policies)); err != nil {
		t.Fatal(err)
	}
	var records []*netproto.DayRecord
	for day := 1; day <= diffDays; day++ {
		rec, err := r.RunDayContext(context.Background(), day)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if rec.Absent != nil || rec.Substituted != nil {
			t.Fatalf("day %d settled degraded (absent %v, substituted %v)", day, rec.Absent, rec.Substituted)
		}
		records = append(records, rec)
	}
	return records
}

func runCenterRow(t *testing.T, greedy sched.Scheduler, codec string) diffRun {
	t.Helper()
	var ledger bytes.Buffer
	c, err := netproto.StartCenter("127.0.0.1:0", append(settleOpts(greedy, &ledger),
		netproto.WithCodec(codec), netproto.WithPhaseDeadline(5*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return diffRun{records: runTCPRow(t, c, c.Addr()), ledger: ledger.Bytes()}
}

// runReplicaRow settles on a 3-replica set whose leader is killed at
// killPoint of day 2 (never, when killPoint is empty).
func runReplicaRow(t *testing.T, greedy sched.Scheduler, killPoint string) diffRun {
	t.Helper()
	var ledger bytes.Buffer
	rs, err := netproto.StartReplicaSet(context.Background(), append(settleOpts(greedy, &ledger),
		netproto.WithReplicas(3), netproto.WithPhaseDeadline(5*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	wantFailovers := uint64(0)
	if killPoint != "" {
		netproto.KillLeaderOnce(rs, 2, killPoint)
		wantFailovers = 1
	}
	records := runTCPRow(t, rs, rs.Addr(), netproto.WithDialer(rs.Dialer()), netproto.WithRetryPolicy(diffRetry))
	if got := rs.Failovers(); got != wantFailovers {
		t.Errorf("failovers = %d, want %d", got, wantFailovers)
	}
	for id := 1; id < 3; id++ {
		if got := rs.ReplicaLedger(id); !bytes.Equal(got, ledger.Bytes()) {
			t.Errorf("replica %d ledger diverged from the merged ledger", id)
		}
	}
	return diffRun{records: records, ledger: ledger.Bytes()}
}

// blankRecord renders a record with its trace ID blanked: topologies
// name their traces differently (a cluster shard's trace folds in the
// shard index) but must agree on every settled byte.
func blankRecord(t *testing.T, rec *netproto.DayRecord) []byte {
	t.Helper()
	r := *rec
	r.TraceID = ""
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var traceIDField = regexp.MustCompile(`"traceId":"[^"]*"`)

func blankLedger(ledger []byte) []byte {
	return traceIDField.ReplaceAll(ledger, []byte(`"traceId":""`))
}

// TestDifferentialTopologies is the one-day-machine guarantee: the same
// policies under one nil-RNG greedy scheduler settle bit-identically in
// every topology that drives the machine — the in-process simulator, a
// 1-shard cluster and a TCP center under each codec, and a replica set
// fault-free and with its leader killed on day 2 at every kill point —
// and every row that writes an audit ledger writes the same bytes.
func TestDifferentialTopologies(t *testing.T) {
	greedy := &sched.Greedy{Pricer: diffPricer, Rating: 2}
	rows := []struct {
		name string
		run  func(t *testing.T) diffRun
	}{
		{"cluster/json", func(t *testing.T) diffRun { return runClusterRow(t, greedy, netproto.CodecJSON) }},
		{"cluster/binary", func(t *testing.T) diffRun { return runClusterRow(t, greedy, netproto.CodecBinary) }},
		{"center/json", func(t *testing.T) diffRun { return runCenterRow(t, greedy, netproto.CodecJSON) }},
		{"center/binary", func(t *testing.T) diffRun { return runCenterRow(t, greedy, netproto.CodecBinary) }},
		{"replica", func(t *testing.T) diffRun { return runReplicaRow(t, greedy, "") }},
	}
	for _, point := range []string{"preference", "consumption", "settle", "beforeCommit", "payment"} {
		rows = append(rows, struct {
			name string
			run  func(t *testing.T) diffRun
		}{"replica/kill-" + point, func(t *testing.T) diffRun { return runReplicaRow(t, greedy, point) }})
	}

	// The simulator is the reference row: the payments, scores, cost
	// and peak it reports are what every other row must settle.
	var simRes *sim.Result
	t.Run("sim", func(t *testing.T) {
		var err error
		simRes, err = sim.Run(sim.Config{Scheduler: greedy, Pricer: diffPricer, Mechanism: mechanism.DefaultConfig(), Rating: 2},
			diffPolicies(), diffDays)
		if err != nil {
			t.Fatal(err)
		}
		if simRes.TotalDefections() != diffDays {
			t.Fatalf("%d defections, want the misreporter to defect on each of %d days", simRes.TotalDefections(), diffDays)
		}
	})
	if simRes == nil {
		t.FailNow()
	}

	var refName string
	var ref diffRun
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got := row.run(t)
			if len(got.records) != diffDays {
				t.Fatalf("%d records, want %d", len(got.records), diffDays)
			}
			for d, rec := range got.records {
				s := simRes.Days[d]
				for _, f := range []struct {
					name      string
					got, want []float64
				}{
					{"payments", rec.Payments, s.Payments},
					{"flexibility", rec.Flexibility, s.Flexibility},
					{"defection", rec.Defection, s.DefectionSc},
				} {
					if !bitEqual(f.got, f.want) {
						t.Errorf("day %d %s %v, sim %v", d+1, f.name, f.got, f.want)
					}
				}
				if rec.Cost != s.Cost || rec.Peak != s.Peak {
					t.Errorf("day %d cost %v peak %v, sim %v %v", d+1, rec.Cost, rec.Peak, s.Cost, s.Peak)
				}
			}
			if refName == "" {
				refName, ref = row.name, got
				return
			}
			for d := range got.records {
				if g, w := blankRecord(t, got.records[d]), blankRecord(t, ref.records[d]); !bytes.Equal(g, w) {
					t.Errorf("day %d record differs from %s:\n got %s\nwant %s", d+1, refName, g, w)
				}
			}
			if g, w := blankLedger(got.ledger), blankLedger(ref.ledger); !bytes.Equal(g, w) {
				t.Errorf("ledger differs from %s:\n got %s\nwant %s", refName, g, w)
			}
		})
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialDegradedDay: one absent and one substituted household,
// each caused by the topology's own fault mechanism — on the TCP center
// a household that never answers its preference request and one that
// goes silent after reporting, both past the phase deadline; on a
// 1-shard cluster the link losing the first's preference and the
// second's consumption — settle to byte-identical records and ledgers.
// A replica set whose leader dies once the degraded day committed
// replays that day on the next leader to the center's record and ledger.
func TestDifferentialDegradedDay(t *testing.T) {
	const absent, dark = 1, 3
	greedy := &sched.Greedy{Pricer: diffPricer, Rating: 2}
	policies := diffPolicies()
	n := len(policies)

	// Cluster: the link's message indexes count n requests, n
	// preferences, then one allocation and one consumption per reporter.
	var clusterLedger bytes.Buffer
	plan := &netproto.FaultPlan{Actions: map[int]netproto.FaultAction{
		n + absent:               netproto.FaultDrop,
		2*n + (n - 1) + dark - 1: netproto.FaultDrop, // the dark household is the third reporter
	}}
	cluster, err := netproto.StartCluster(context.Background(), append(settleOpts(greedy, &clusterLedger),
		netproto.WithShardFaultPlan(0, plan))...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for i, p := range policies {
		if err := cluster.Join(core.HouseholdID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	crec, err := cluster.ClusterDay(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clusterDay := crec.Shards[0].Record
	if clusterDay == nil {
		t.Fatalf("shard failed: %s", crec.Shards[0].Err)
	}

	// settleDegraded registers the neighbourhood at addr — the absent and
	// dark households as raw connections that fall silent, the rest as
	// agents with opts — and settles day 1 on r.
	settleDegraded := func(r dayRunner, addr string, opts ...netproto.Option) *netproto.DayRecord {
		t.Helper()
		for i, p := range policies {
			if i == absent || i == dark {
				silentHousehold(t, addr, core.HouseholdID(i), i == dark, p)
				continue
			}
			a, err := netproto.Connect(context.Background(), addr, core.HouseholdID(i), p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close() })
		}
		if err := r.WaitForAgentsContext(context.Background(), n); err != nil {
			t.Fatal(err)
		}
		rec, err := r.RunDayContext(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	var centerLedger bytes.Buffer
	c, err := netproto.StartCenter("127.0.0.1:0", append(settleOpts(greedy, &centerLedger),
		netproto.WithPhaseDeadline(300*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	centerDay := settleDegraded(c, c.Addr())

	// Replica set: the leader is killed after the day's entry committed,
	// so the next leader replays the day from the committed inputs and
	// only redelivers its payments.
	var replicaLedger bytes.Buffer
	rs, err := netproto.StartReplicaSet(context.Background(), append(settleOpts(greedy, &replicaLedger),
		netproto.WithReplicas(3), netproto.WithPhaseDeadline(300*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	netproto.KillLeaderOnce(rs, 1, "payment")
	replicaDay := settleDegraded(rs, rs.Addr(), netproto.WithDialer(rs.Dialer()), netproto.WithRetryPolicy(diffRetry))
	if got := rs.Failovers(); got != 1 {
		t.Errorf("replica set failovers = %d, want 1", got)
	}

	if len(centerDay.Absent) != 1 || centerDay.Absent[0] != absent {
		t.Errorf("absent %v, want [%d]", centerDay.Absent, absent)
	}
	if len(centerDay.Substituted) != n-1 || !centerDay.Substituted[dark-1] {
		t.Errorf("substituted %v, want household %d", centerDay.Substituted, dark)
	}
	if g, w := blankRecord(t, clusterDay), blankRecord(t, centerDay); !bytes.Equal(g, w) {
		t.Errorf("degraded records differ:\ncluster %s\n center %s", g, w)
	}
	if g, w := blankLedger(clusterLedger.Bytes()), blankLedger(centerLedger.Bytes()); !bytes.Equal(g, w) {
		t.Errorf("degraded ledgers differ:\ncluster %s\n center %s", g, w)
	}
	if g, w := blankRecord(t, replicaDay), blankRecord(t, centerDay); !bytes.Equal(g, w) {
		t.Errorf("replayed degraded record differs:\nreplica %s\n center %s", g, w)
	}
	if g, w := blankLedger(replicaLedger.Bytes()), blankLedger(centerLedger.Bytes()); !bytes.Equal(g, w) {
		t.Errorf("replayed degraded ledger differs:\nreplica %s\n center %s", g, w)
	}
	// The ledger is the day's one persisted record, so each topology's
	// line names the absentee its record names.
	for _, top := range []struct {
		name   string
		ledger []byte
		rec    *netproto.DayRecord
	}{
		{"cluster", clusterLedger.Bytes(), clusterDay},
		{"center", centerLedger.Bytes(), centerDay},
		{"replica set", replicaLedger.Bytes(), replicaDay},
	} {
		if !bytes.HasSuffix(top.ledger, []byte(`,"absent":[1]}`+"\n")) {
			t.Errorf("%s: the ledger line does not end in the absentee: %s", top.name, top.ledger)
		}
		entries, err := mechanism.ReadLedger(bytes.NewReader(top.ledger))
		if err != nil || len(entries) != 1 {
			t.Fatalf("%s: %d ledger entries, err %v; want 1", top.name, len(entries), err)
		}
		if !slices.Equal(entries[0].Absent, top.rec.Absent) {
			t.Errorf("%s: ledger absentees %v, record absentees %v", top.name, entries[0].Absent, top.rec.Absent)
		}
		if bad := entries[0].Audit(); len(bad) != 0 {
			t.Errorf("%s: ledger audit: %v", top.name, bad)
		}
	}
}

// silentHousehold registers id over a raw connection that never
// answers an allocation or a payment; when reports is set it answers
// the preference request with p's report first.
func silentHousehold(t *testing.T, addr string, id core.HouseholdID, reports bool, p netproto.Policy) {
	t.Helper()
	dialed, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close() })
	conn := netproto.RawConn{Conn: dialed}
	if err := conn.Send(&netproto.Message{Kind: netproto.KindHello, ID: id}); err != nil {
		t.Fatal(err)
	}
	if w, err := conn.Recv(); err != nil || w.Kind != netproto.KindWelcome {
		t.Fatalf("registration of %d failed: %v %v", id, w, err)
	}
	go func() {
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if reports && m.Kind == netproto.KindRequest {
				pref := p.Report(m.Day)
				_ = conn.Send(&netproto.Message{Kind: netproto.KindPreference, ID: id, Day: m.Day, Pref: &pref})
			}
		}
	}()
}
