package netproto

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/pricing"
	"enki/internal/profile"
	"enki/internal/sched"
	"enki/internal/settle"
)

// buildCluster enrolls n deterministic truthful households (profile
// generator, seed 42) into a fresh cluster built with opts.
func buildCluster(t *testing.T, n int, opts ...Option) *Cluster {
	t.Helper()
	cluster, err := StartCluster(context.Background(), opts...)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	for i := 0; i < n; i++ {
		p := gen.Draw()
		if err := cluster.Join(core.HouseholdID(i), &Truthful{Type: p.TypeWide()}); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	return cluster
}

// marshalDays renders a multi-day cluster run to bytes for bit-identity
// comparisons.
func marshalDays(t *testing.T, cluster *Cluster, days int) []byte {
	t.Helper()
	return marshalDayRange(t, cluster, 1, days)
}

// marshalDayRange settles days first…last and renders their records to
// bytes.
func marshalDayRange(t *testing.T, cluster *Cluster, first, last int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for day := first; day <= last; day++ {
		rec, err := cluster.ClusterDay(context.Background(), day)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if err := enc.Encode(rec); err != nil {
			t.Fatalf("encode day %d: %v", day, err)
		}
	}
	return buf.Bytes()
}

// TestClusterWorkersBitIdentical is the cluster's determinism contract:
// the serial reference run (Workers: 1) and any parallel run settle
// byte-identical days — records and audit ledger both — for every codec.
func TestClusterWorkersBitIdentical(t *testing.T) {
	for _, codec := range CodecNames() {
		t.Run(codec, func(t *testing.T) {
			var ref []byte
			var refLedger string
			for _, workers := range []int{1, 2, 7} {
				var ledger bytes.Buffer
				cluster := buildCluster(t, 120,
					WithShards(16),
					WithWorkers(workers),
					WithCodec(codec),
					WithTraceSeed(7),
					WithLedger(NewJournal(&ledger)),
				)
				got := marshalDays(t, cluster, 3)
				if ref == nil {
					ref, refLedger = got, ledger.String()
					continue
				}
				if !bytes.Equal(got, ref) {
					t.Errorf("workers=%d record bytes differ from serial reference", workers)
				}
				if ledger.String() != refLedger {
					t.Errorf("workers=%d ledger bytes differ from serial reference", workers)
				}
			}
		})
	}
}

// TestClusterJoinOrderIrrelevant: the shard partition is a function of
// the member set, so enrolling households in reverse produces the same
// settled bytes as enrolling them in order.
func TestClusterJoinOrderIrrelevant(t *testing.T) {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	n := 60
	profiles := gen.DrawN(n)
	run := func(order []int) []byte {
		cluster, err := StartCluster(context.Background(), WithShards(8), WithTraceSeed(7))
		if err != nil {
			t.Fatalf("StartCluster: %v", err)
		}
		defer cluster.Close()
		for _, i := range order {
			if err := cluster.Join(core.HouseholdID(i), &Truthful{Type: profiles[i].TypeWide()}); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		return marshalDays(t, cluster, 2)
	}
	forward := make([]int, n)
	reverse := make([]int, n)
	for i := range forward {
		forward[i] = i
		reverse[i] = n - 1 - i
	}
	if !bytes.Equal(run(forward), run(reverse)) {
		t.Error("join order changed the settled bytes")
	}
}

// TestClusterJoinWindowsOrderIrrelevant extends the join-order contract
// to households that join between days. Three join windows are each
// followed by two days, and each later window's IDs interleave below
// the earlier ones, so its repartition re-sorts a membership already
// partitioned. Joining every window in ascending or in shuffled order
// settles byte-identical records and ledgers.
func TestClusterJoinWindowsOrderIrrelevant(t *testing.T) {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	const windows, perWindow = 3, 40
	profiles := gen.DrawN(windows * perWindow)
	run := func(shuffle *rand.Rand) (records, ledger []byte) {
		var journal bytes.Buffer
		cluster, err := StartCluster(context.Background(), WithShards(8), WithTraceSeed(7), WithLedger(NewJournal(&journal)))
		if err != nil {
			t.Fatalf("StartCluster: %v", err)
		}
		defer cluster.Close()
		var out []byte
		for w := range windows {
			// Window w joins the IDs ≡ windows−1−w (mod windows): 2, 5, 8, …
			// first, then 1, 4, 7, …, then 0, 3, 6, …
			var ids []int
			for id := windows - 1 - w; id < len(profiles); id += windows {
				ids = append(ids, id)
			}
			if shuffle != nil {
				shuffle.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			}
			for _, id := range ids {
				if err := cluster.Join(core.HouseholdID(id), &Truthful{Type: profiles[id].TypeWide()}); err != nil {
					t.Fatalf("window %d: join %d: %v", w, id, err)
				}
			}
			out = append(out, marshalDayRange(t, cluster, 2*w+1, 2*w+2)...)
		}
		return out, journal.Bytes()
	}
	records, ledger := run(nil)
	for seed := range int64(3) {
		gotRecords, gotLedger := run(rand.New(rand.NewSource(seed)))
		if !bytes.Equal(gotRecords, records) {
			t.Errorf("shuffle %d: join order changed the settled records", seed)
		}
		if !bytes.Equal(gotLedger, ledger) {
			t.Errorf("shuffle %d: join order changed the ledger", seed)
		}
	}
}

// TestClusterJoinRejectsDuplicates: Join refuses a member's ID on every
// path the membership can be on — while IDs ascend (the last ID, or an
// earlier one), after an out-of-order Join built the member set, and
// after a repartition re-sorted the members — and a refused Join
// leaves the membership as it was.
func TestClusterJoinRejectsDuplicates(t *testing.T) {
	ctx := context.Background()
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	for _, tc := range []struct {
		name      string
		joins     []core.HouseholdID
		partition bool // settle a day between the joins and the duplicates
		dups      []core.HouseholdID
	}{
		{"last ID while IDs ascend", []core.HouseholdID{10, 20, 30}, false, []core.HouseholdID{30}},
		{"earlier ID while IDs ascend", []core.HouseholdID{10, 20, 30}, false, []core.HouseholdID{10}},
		{"after an out-of-order join", []core.HouseholdID{10, 30, 20}, false, []core.HouseholdID{10, 20, 30}},
		{"after a repartition sorted the members", []core.HouseholdID{30, 10, 20}, true, []core.HouseholdID{10, 20, 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster := buildCluster(t, 0, WithShards(2))
			join := func(id core.HouseholdID) error {
				return cluster.Join(id, &Truthful{Type: gen.Draw().TypeWide()})
			}
			for _, id := range tc.joins {
				if err := join(id); err != nil {
					t.Fatalf("join %d: %v", id, err)
				}
			}
			if tc.partition {
				if _, err := cluster.ClusterDay(ctx, 1); err != nil {
					t.Fatalf("ClusterDay: %v", err)
				}
			}
			for _, id := range tc.dups {
				want := fmt.Sprintf("netproto: duplicate household id %d", id)
				if err := join(id); err == nil || err.Error() != want {
					t.Errorf("joining member %d again: error %v, want %q", id, err, want)
				}
			}
			if got := cluster.Members(); got != len(tc.joins) {
				t.Errorf("%d members after the refused joins, want %d", got, len(tc.joins))
			}
			// The membership still takes new households on either side of
			// its members and settles every one of them once.
			for _, id := range []core.HouseholdID{40, 5, 25} {
				if err := join(id); err != nil {
					t.Fatalf("join %d: %v", id, err)
				}
			}
			rec, err := cluster.ClusterDay(ctx, 2)
			if err != nil {
				t.Fatalf("ClusterDay: %v", err)
			}
			if want := len(tc.joins) + 3; rec.Households != want || rec.Settled != want {
				t.Errorf("day settled %d of %d households, want %d of %d", rec.Settled, rec.Households, want, want)
			}
		})
	}
}

// joinOnReport is a truthful household whose first report runs join:
// the joins then happen while its cluster day runs.
type joinOnReport struct {
	Truthful
	once sync.Once
	join func()
}

func (p *joinOnReport) Report(day int) core.Preference {
	p.once.Do(p.join)
	return p.Truthful.Report(day)
}

// TestClusterJoinDuringDay: households may join while a day runs. A
// second goroutine joins IDs above every member's and IDs between
// them while the shards settle the day, which settles its dawn
// membership; the joins take effect from the next day, which settles
// the bytes it settles when the same households join between the days.
// make chaos runs it under the race detector, where a Join that wrote
// into a running shard's block would show.
func TestClusterJoinDuringDay(t *testing.T) {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	const n = 400
	profiles := gen.DrawN(2*n + 20)
	// At dawn the members are the even IDs below 2n. The late joiners
	// ascend past them, then fall between them, then ascend again.
	var late []int
	for id := 2 * n; id < 2*n+10; id++ {
		late = append(late, id)
	}
	for id := 1; id < 2*n; id += 2 * n / 10 {
		late = append(late, id)
	}
	for id := 2*n + 10; id < 2*n+20; id++ {
		late = append(late, id)
	}
	joinLate := func(t *testing.T, cluster *Cluster) {
		for _, id := range late {
			if err := cluster.Join(core.HouseholdID(id), &Truthful{Type: profiles[id].TypeWide()}); err != nil {
				t.Errorf("late join %d: %v", id, err)
			}
		}
	}
	run := func(duringDay bool) (records, ledger []byte) {
		var journal bytes.Buffer
		cluster := buildCluster(t, 0, WithShards(16), WithWorkers(4), WithTraceSeed(7), WithLedger(NewJournal(&journal)))
		for id := 0; id < 2*n; id += 2 {
			var p Policy = &Truthful{Type: profiles[id].TypeWide()}
			if duringDay && id == n { // a member of a middle shard
				p = &joinOnReport{Truthful: Truthful{Type: profiles[id].TypeWide()}, join: func() {
					done := make(chan struct{})
					go func() {
						defer close(done)
						joinLate(t, cluster)
					}()
					<-done
				}}
			}
			if err := cluster.Join(core.HouseholdID(id), p); err != nil {
				t.Fatalf("join %d: %v", id, err)
			}
		}
		day1 := marshalDayRange(t, cluster, 1, 1)
		if !duringDay {
			joinLate(t, cluster)
		}
		if got, want := cluster.Members(), n+len(late); got != want {
			t.Fatalf("%d members after the late joins, want %d", got, want)
		}
		return append(day1, marshalDayRange(t, cluster, 2, 3)...), journal.Bytes()
	}
	records, ledger := run(true)
	wantRecords, wantLedger := run(false)
	if !bytes.Equal(records, wantRecords) {
		t.Error("joins during day 1 settled other records than the same joins after it")
	}
	if !bytes.Equal(ledger, wantLedger) {
		t.Error("joins during day 1 wrote another ledger than the same joins after it")
	}
}

// TestClusterMatchesSim pins the cluster's settlement to the in-process
// simulator: one shard, a shared deterministic scheduler, batch framing
// in between — the payments must match exactly the day machine that
// sim.Run drives, proving the wire framing is transparent to the
// mechanism. sim imports netproto, so the reference runs the machine
// directly.
func TestClusterMatchesSim(t *testing.T) {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(9))
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	profiles := gen.DrawN(20)

	cluster, err := StartCluster(context.Background(),
		WithScheduler(&sched.Greedy{Pricer: defaultTestPricer(), Rating: 2}),
		WithCodec(CodecBinary),
	)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cluster.Close()
	for i, p := range profiles {
		if err := cluster.Join(core.HouseholdID(i), &Truthful{Type: p.TypeWide()}); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	rec, err := cluster.ClusterDay(context.Background(), 1)
	if err != nil {
		t.Fatalf("ClusterDay: %v", err)
	}
	if len(rec.Shards) != 1 || rec.Shards[0].Record == nil {
		t.Fatalf("expected one shard with a record, got %+v", rec)
	}

	// Reference: the same day directly through the day machine.
	reports := make([]core.Report, len(profiles))
	for i, p := range profiles {
		reports[i] = core.Report{ID: core.HouseholdID(i), Pref: p.TypeWide().True}
	}
	m := settle.New(settle.Config{
		Scheduler: &sched.Greedy{Pricer: defaultTestPricer(), Rating: 2},
		Pricer:    defaultTestPricer(),
		Mechanism: mechanism.DefaultConfig(),
		Rating:    2,
	}, 1, "", nil)
	assignments, err := m.Allocate(reports, nil)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	consumptions := make([]core.Consumption, len(reports))
	for i := range assignments {
		consumptions[i] = core.Consumption{ID: reports[i].ID, Interval: assignments[i].Interval}
	}
	out, err := m.Settle(consumptions, nil)
	if err != nil {
		t.Fatalf("settle: %v", err)
	}
	want := out.Record
	got := rec.Shards[0].Record
	if len(got.Payments) != len(want.Payments) {
		t.Fatalf("settled %d households, want %d", len(got.Payments), len(want.Payments))
	}
	for i := range want.Payments {
		if got.Payments[i] != want.Payments[i] {
			t.Errorf("household %d payment %g, want %g", i, got.Payments[i], want.Payments[i])
		}
	}
	if got.Cost != want.Cost || got.Peak != want.Peak {
		t.Errorf("aggregates (%g, %g), want (%g, %g)", got.Cost, got.Peak, want.Cost, want.Peak)
	}
}

// TestClusterBudgetIdentityPerShard checks Theorem 1 on every shard and
// on the merge: each neighborhood collects exactly ξ·κ, so residuals
// vanish shard by shard and in total.
func TestClusterBudgetIdentityPerShard(t *testing.T) {
	cluster := buildCluster(t, 90, WithShards(9), WithCodec(CodecBinary), WithTraceSeed(3))
	rec, err := cluster.ClusterDay(context.Background(), 1)
	if err != nil {
		t.Fatalf("ClusterDay: %v", err)
	}
	xi := mechanism.DefaultConfig().Xi
	for _, shard := range rec.Shards {
		if shard.Err != "" {
			t.Fatalf("shard %d failed: %s", shard.Shard, shard.Err)
		}
		if residual := shard.Revenue - xi*shard.Cost; math.Abs(residual) > 1e-9 {
			t.Errorf("shard %d residual %g", shard.Shard, residual)
		}
	}
	if residual := rec.Revenue - xi*rec.Cost; math.Abs(residual) > 1e-9 {
		t.Errorf("merged residual %g", residual)
	}
	if rec.Settled != 90 || rec.Failed != 0 {
		t.Errorf("settled %d failed %d, want 90/0", rec.Settled, rec.Failed)
	}
}

// TestClusterShardRecordsOff: the memory-bounded mode drops the bulky
// per-household records but keeps every summary aggregate.
func TestClusterShardRecordsOff(t *testing.T) {
	cluster := buildCluster(t, 40, WithShards(4), WithShardRecords(false))
	rec, err := cluster.ClusterDay(context.Background(), 1)
	if err != nil {
		t.Fatalf("ClusterDay: %v", err)
	}
	for _, shard := range rec.Shards {
		if shard.Record != nil {
			t.Errorf("shard %d kept a record with records off", shard.Shard)
		}
		if shard.Settled == 0 || shard.Cost <= 0 {
			t.Errorf("shard %d summary empty: %+v", shard.Shard, shard)
		}
	}
}

// TestClusterKeptRecordsSurviveLaterDays: a cluster that keeps shard
// records settles them in fresh storage, never in a shard day's pooled
// scratch, so day 1's record reads the same after days 2 and 3 have
// settled, at one worker and at three.
func TestClusterKeptRecordsSurviveLaterDays(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cluster := buildCluster(t, 300, WithShards(4), WithWorkers(workers),
			WithCodec(CodecBinary), WithShardRecords(true))
		rec, err := cluster.ClusterDay(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		before, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		for day := 2; day <= 3; day++ {
			if _, err := cluster.ClusterDay(context.Background(), day); err != nil {
				t.Fatal(err)
			}
		}
		if after, _ := json.Marshal(rec); !bytes.Equal(before, after) {
			t.Errorf("workers %d: day 1's record changed once days 2-3 settled:\n%s\n%s", workers, before, after)
		}
	}
}

// TestClusterPooledScratchSettlesLikeFreshStorage: without records,
// every shard day settles in a pooled scratch that last served another
// shard, of another size, or the same shard on the day before; one
// worker makes the reuse all but certain. Under fault plans that leave
// households absent and dark on two shards, the ledger and the shard
// summaries must be byte-identical to a run that keeps records, which
// settles in fresh storage.
func TestClusterPooledScratchSettlesLikeFreshStorage(t *testing.T) {
	run := func(records bool) (ledger, summaries []byte) {
		var buf bytes.Buffer
		cluster := buildCluster(t, 1003, WithShards(8), WithWorkers(1), WithCodec(CodecBinary),
			WithLedger(NewJournal(&buf)), WithShardRecords(records),
			WithShardFaultPlan(2, GenerateFaultPlan(17, 2000, 0.02, 0, 0.02, 0.004)),
			WithShardFaultPlan(5, GenerateFaultPlan(18, 2000, 0.03, 0, 0, 0)))
		for day := 1; day <= 3; day++ {
			rec, err := cluster.ClusterDay(context.Background(), day)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rec.Shards {
				rec.Shards[i].Record = nil
			}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			summaries = append(append(summaries, line...), '\n')
		}
		return buf.Bytes(), summaries
	}
	freshLedger, freshSummaries := run(true)
	pooledLedger, pooledSummaries := run(false)
	if !bytes.Contains(freshSummaries, []byte(`"absent"`)) || !bytes.Contains(freshSummaries, []byte(`"substituted"`)) {
		t.Fatalf("the fault plan left no household absent and dark:\n%s", freshSummaries)
	}
	if !bytes.Equal(freshLedger, pooledLedger) {
		t.Error("ledgers differ between fresh and pooled settle storage")
	}
	if !bytes.Equal(freshSummaries, pooledSummaries) {
		t.Errorf("summaries differ between fresh and pooled settle storage:\n%s\n%s", freshSummaries, pooledSummaries)
	}
}

// TestClusterChaosFaultyShardIsolated is the cluster's blast-radius
// contract: a shard whose link eats every frame fails alone, and its
// siblings settle byte-for-byte what they settle on a fault-free run.
func TestClusterChaosFaultyShardIsolated(t *testing.T) {
	// Drop every message on shard 2's link for the whole day.
	sabotage := &FaultPlan{Actions: map[int]FaultAction{}}
	for i := 0; i < 200; i++ {
		sabotage.Actions[i] = FaultDrop
	}
	run := func(opts ...Option) *ClusterDayRecord {
		base := []Option{WithShards(5), WithTraceSeed(11)}
		cluster := buildCluster(t, 50, append(base, opts...)...)
		rec, err := cluster.ClusterDay(context.Background(), 1)
		if err != nil {
			t.Fatalf("ClusterDay: %v", err)
		}
		return rec
	}
	clean := run()
	faulty := run(WithShardFaultPlan(2, sabotage))

	if faulty.Shards[2].Err == "" {
		t.Fatal("sabotaged shard did not fail")
	}
	if faulty.Failed != 1 {
		t.Fatalf("failed shards = %d, want 1", faulty.Failed)
	}
	for s := 0; s < 5; s++ {
		if s == 2 {
			continue
		}
		got, _ := json.Marshal(faulty.Shards[s])
		want, _ := json.Marshal(clean.Shards[s])
		if !bytes.Equal(got, want) {
			t.Errorf("sibling shard %d perturbed by shard 2's faults", s)
		}
	}
}

// TestClusterChaosFaultDegradesShard: dropping one household's
// consumption reply inside a shard settles that household via the
// imputed-defector path — the shard degrades, it does not fail, and its
// budget identity still holds exactly.
func TestClusterChaosFaultDegradesShard(t *testing.T) {
	// One shard of 10 households. Per-link message stream: 10 requests,
	// 10 preferences, 10 allocations, then consumptions — drop the first
	// consumption reply (index 30).
	cluster := buildCluster(t, 10,
		WithShards(1),
		WithBatchSize(4),
		WithShardFaultPlan(0, &FaultPlan{Actions: map[int]FaultAction{30: FaultDrop}}),
	)
	rec, err := cluster.ClusterDay(context.Background(), 1)
	if err != nil {
		t.Fatalf("ClusterDay: %v", err)
	}
	shard := rec.Shards[0]
	if shard.Err != "" {
		t.Fatalf("shard failed instead of degrading: %s", shard.Err)
	}
	if shard.Substituted != 1 {
		t.Fatalf("substituted = %d, want 1", shard.Substituted)
	}
	if shard.Settled != 10 {
		t.Fatalf("settled = %d, want 10 (dark household still billed)", shard.Settled)
	}
	xi := mechanism.DefaultConfig().Xi
	if residual := shard.Revenue - xi*shard.Cost; math.Abs(residual) > 1e-9 {
		t.Errorf("degraded shard residual %g", residual)
	}
	if shard.Record == nil || shard.Record.Substituted == nil {
		t.Fatal("record does not mark the substituted household")
	}
}

// TestClusterChaosGarbledFrameLosesBatch: a garbled frame loses every
// message it carries (the batched analogue of a corrupted TCP frame),
// and with batch size 4 that means up to four households go absent from
// one injected fault.
func TestClusterChaosGarbledFrameLosesBatch(t *testing.T) {
	// Garble the first request frame: requests 0-3 are lost, so those
	// households never report and sit the day out.
	cluster := buildCluster(t, 12,
		WithShards(1),
		WithBatchSize(4),
		WithShardFaultPlan(0, &FaultPlan{Actions: map[int]FaultAction{0: FaultGarble}}),
	)
	rec, err := cluster.ClusterDay(context.Background(), 1)
	if err != nil {
		t.Fatalf("ClusterDay: %v", err)
	}
	shard := rec.Shards[0]
	if shard.Err != "" {
		t.Fatalf("shard failed: %s", shard.Err)
	}
	if shard.Absent != 4 {
		t.Errorf("absent = %d, want 4 (whole garbled frame lost)", shard.Absent)
	}
	if shard.Settled != 8 {
		t.Errorf("settled = %d, want 8", shard.Settled)
	}
}

// offDayPolicy reports its true 2-slot evening preference and then
// consumes the off-day interval (30, 32): the right duration, outside
// the day.
type offDayPolicy struct{ Truthful }

func (*offDayPolicy) Consume(int, core.Interval) core.Interval {
	return core.Interval{Begin: 30, End: 32}
}

// TestClusterRejectsOffDayConsumption: a household consuming outside
// the day fails its own shard — not its sibling, not the cluster day —
// instead of settling with its load dropped from κ(ω).
func TestClusterRejectsOffDayConsumption(t *testing.T) {
	cluster := buildCluster(t, 20, WithShards(2))
	// The highest ID sorts last, into shard 1.
	offender := &offDayPolicy{Truthful{Type: core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}}}
	if err := cluster.Join(100, offender); err != nil {
		t.Fatal(err)
	}
	rec, err := cluster.ClusterDay(context.Background(), 1)
	if err != nil {
		t.Fatalf("ClusterDay: %v", err)
	}
	if rec.Failed != 1 || rec.Shards[0].Err != "" {
		t.Fatalf("failed shards %d, shard 0 err %q; want only shard 1 failed", rec.Failed, rec.Shards[0].Err)
	}
	if got := rec.Shards[1].Err; !strings.Contains(got, "household 100") || !strings.Contains(got, "outside day") {
		t.Errorf("shard 1 err %q, want household 100's outside-day rejection", got)
	}
}

// failingWriter records every Write until its k-th, which fails with
// errDiskFull, as does every Write after it.
type failingWriter struct {
	k, n int
	buf  bytes.Buffer
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n >= w.k {
		return 0, errDiskFull
	}
	return w.buf.Write(p)
}

// TestClusterLedgerWriteFailure: a ledger write that fails after the
// shards have started fails the cluster day. The ledger keeps exactly
// the lines before the failed one, no write follows it, the operator
// plane reads the day failed, and the day leaves no goroutine behind.
func TestClusterLedgerWriteFailure(t *testing.T) {
	const k = 3
	opts := []Option{WithShards(8), WithTraceSeed(7)}
	var healthy bytes.Buffer
	marshalDays(t, buildCluster(t, 40, append(opts, WithLedger(NewJournal(&healthy)))...), 1)
	want := strings.SplitAfter(healthy.String(), "\n")[:k-1]

	for _, workers := range []int{1, 3} {
		w := &failingWriter{k: k}
		cluster := buildCluster(t, 40, append(opts, WithWorkers(workers), WithLedger(NewJournal(w)))...)
		before := runtime.NumGoroutine()
		_, err := cluster.ClusterDay(context.Background(), 1)
		if !errors.Is(err, errDiskFull) || !strings.Contains(err.Error(), "netproto: audit ledger") {
			t.Fatalf("workers=%d: ClusterDay error %v, want the wrapped audit ledger write failure", workers, err)
		}
		if got := w.buf.String(); got != strings.Join(want, "") {
			t.Errorf("workers=%d: ledger holds %d lines, want the first %d of the healthy ledger", workers, strings.Count(got, "\n"), k-1)
		}
		if w.n != k {
			t.Errorf("workers=%d: %d writes, want none after the failed write %d", workers, w.n, k)
		}
		if phase := cluster.DayStatus().Phase; phase != "failed" {
			t.Errorf("workers=%d: phase %q after a ledger failure, want failed", workers, phase)
		}
		// The pool's workers may still be unwinding after ClusterDay
		// returns: poll briefly.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: goroutines %d before the day, %d after", workers, before, after)
		}
	}
}

// slowWriter is a ledger file that is slow to write: it sleeps on every
// Write, so shard workers hand in lines while one of them writes. It
// counts the writes.
type slowWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *slowWriter) Write(p []byte) (int, error) {
	w.writes++
	time.Sleep(20 * time.Microsecond)
	return w.buf.Write(p)
}

// TestClusterLedgerStreamUnderContention drives the ledger stream with
// more shards than the journal's tail holds and a writer that sleeps on
// every line, so workers keep handing in lines while another writes
// outside the stream's lock. At every worker count the ledger bytes and
// the tail are identical, every line is one Write, and the tail is the
// ledger's last lines.
func TestClusterLedgerStreamUnderContention(t *testing.T) {
	const households, shards, days = 600, 300, 2
	var want []byte
	var wantTail []json.RawMessage
	for _, workers := range []int{1, 2, 8} {
		w := &slowWriter{}
		j := NewJournal(w)
		marshalDays(t, buildCluster(t, households, WithShards(shards), WithWorkers(workers), WithTraceSeed(7),
			WithShardRecords(false), WithLedger(j)), days)
		got, tail := w.buf.Bytes(), j.LedgerTail(journalTailCap)
		lines := bytes.SplitAfter(got, []byte("\n"))
		lines = lines[:len(lines)-1] // after the last newline
		if len(lines) != shards*days || w.writes != len(lines) {
			t.Fatalf("workers=%d: %d writes of %d lines, want one per line and %d lines", workers, w.writes, len(lines), shards*days)
		}
		if len(tail) != journalTailCap {
			t.Fatalf("workers=%d: a tail of %d lines, want %d", workers, len(tail), journalTailCap)
		}
		for i, line := range tail {
			if l := lines[len(lines)-journalTailCap+i]; !bytes.Equal(line, l[:len(l)-1]) {
				t.Fatalf("workers=%d: tail line %d is not the ledger's line %d", workers, i, len(lines)-journalTailCap+i)
			}
		}
		if workers == 1 {
			want, wantTail = got, tail
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: ledger differs from Workers:1 (%d vs %d bytes)", workers, len(got), len(want))
		}
		for i := range tail {
			if !bytes.Equal(tail[i], wantTail[i]) {
				t.Errorf("workers=%d: tail line %d differs from Workers:1", workers, i)
				break
			}
		}
	}
}

// cancelOnFeedback is a truthful household that cancels a context when
// its payment notice arrives.
type cancelOnFeedback struct {
	Truthful
	cancel context.CancelFunc
}

func (p *cancelOnFeedback) Feedback(int, PaymentDetail) { p.cancel() }

// TestClusterCancelledMidDayCompletes pins the cancellation contract. A
// started day settles and pays every household, so a context cancelled
// by a shard 0 household's payment notice still returns the day's
// record, and its record and ledger bytes equal those of an uncancelled
// twin. A context done before the call settles nothing.
func TestClusterCancelledMidDayCompletes(t *testing.T) {
	run := func(ctx context.Context, cancel context.CancelFunc) (*Cluster, *bytes.Buffer, []byte) {
		var ledger bytes.Buffer
		cluster := buildCluster(t, 0, WithShards(4), WithWorkers(2), WithTraceSeed(7), WithLedger(NewJournal(&ledger)))
		gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(42))
		if err != nil {
			t.Fatalf("generator: %v", err)
		}
		for i := 0; i < 40; i++ {
			typ := gen.Draw().TypeWide()
			var p Policy = &Truthful{Type: typ}
			if i == 0 { // the lowest ID settles in shard 0
				p = &cancelOnFeedback{Truthful{Type: typ}, cancel}
			}
			if err := cluster.Join(core.HouseholdID(i), p); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		rec, err := cluster.ClusterDay(ctx, 1)
		if err != nil {
			t.Fatalf("ClusterDay: %v", err)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return cluster, &ledger, data
	}
	_, twinLedger, twin := run(context.Background(), func() {})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cluster, ledger, got := run(ctx, cancel)
	if ctx.Err() == nil {
		t.Fatal("the shard 0 household's feedback did not cancel the context")
	}
	if !bytes.Equal(got, twin) {
		t.Error("cancelled day's record differs from its uncancelled twin's")
	}
	if !bytes.Equal(ledger.Bytes(), twinLedger.Bytes()) {
		t.Error("cancelled day's ledger differs from its uncancelled twin's")
	}

	status, lines := cluster.DayStatus(), ledger.Len()
	if _, err := cluster.ClusterDay(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("ClusterDay with a done context: error %v, want context.Canceled", err)
	}
	if ledger.Len() != lines {
		t.Error("a day refused for a done context wrote to the ledger")
	}
	if got := cluster.DayStatus(); got != status {
		t.Errorf("a day refused for a done context moved the status from %+v to %+v", status, got)
	}
}

// TestClusterEmptyAndErrorPaths covers the service's refusals: no
// members, bad codec, bad shard count, double-join, joining after
// close.
func TestClusterEmptyAndErrorPaths(t *testing.T) {
	ctx := context.Background()
	if _, err := StartCluster(ctx, WithShards(0)); err == nil {
		t.Error("shards=0 accepted")
	}
	if _, err := StartCluster(ctx, WithCodec("gzip")); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := StartCluster(ctx, WithShards(2), WithShardFaultPlan(5, &FaultPlan{})); err == nil {
		t.Error("out-of-range shard fault plan accepted")
	}
	cluster, err := StartCluster(ctx)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	if _, err := cluster.ClusterDay(ctx, 1); err == nil {
		t.Error("empty cluster settled a day")
	}
	p := &Truthful{}
	if err := cluster.Join(1, p); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := cluster.Join(1, p); err == nil {
		t.Error("duplicate id accepted")
	}
	cluster.Close()
	if err := cluster.Join(2, p); err == nil {
		t.Error("join after close accepted")
	}
	if _, err := cluster.ClusterDay(ctx, 1); err == nil {
		t.Error("day after close accepted")
	}
}

// defaultTestPricer returns the pricer defaultOptions uses, for tests
// that need a matching reference computation.
func defaultTestPricer() pricing.Pricer { return defaultOptions().center.Pricer }
