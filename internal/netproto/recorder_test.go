package netproto

import (
	"bytes"
	"context"
	"testing"

	"enki/internal/obs"
)

// TestRecorderIdentitiesWorkerInvariant extends the Workers:1 ≡
// Workers:N contract to the flight recorder: the multiset of timing-free
// event identities a cluster run captures is identical between the
// serial reference run and a parallel run. Capture timestamps are
// exempt (the "_ms" rule); everything else recorded must be a pure
// function of the settled work.
func TestRecorderIdentitiesWorkerInvariant(t *testing.T) {
	run := func(workers int) []string {
		rec := obs.DefaultRecorder()
		rec.Reset()
		rec.Enable()
		defer func() {
			rec.Disable()
			rec.Reset()
		}()
		var ledger bytes.Buffer
		cluster := buildCluster(t, 48,
			WithShards(6),
			WithWorkers(workers),
			WithTraceSeed(7),
			WithLedger(NewJournal(&ledger)),
		)
		for day := 1; day <= 2; day++ {
			if _, err := cluster.ClusterDay(context.Background(), day); err != nil {
				t.Fatalf("workers=%d day %d: %v", workers, day, err)
			}
		}
		cluster.Close()
		return rec.Identities()
	}

	serial := run(1)
	parallel := run(4)
	if len(serial) == 0 {
		t.Fatal("serial run recorded no events")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("event counts differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("identity multiset diverges at %d:\nserial:   %s\nparallel: %s", i, serial[i], parallel[i])
		}
	}
}

// TestRecorderCapturesFaultAndDegradation: the flight recorder sees an
// injected fault and the degradation it causes, tagged with the faulted
// shard — the signal enkidebug's timeline and cause ranking key on.
func TestRecorderCapturesFaultAndDegradation(t *testing.T) {
	rec := obs.DefaultRecorder()
	rec.Reset()
	rec.Enable()
	defer func() {
		rec.Disable()
		rec.Reset()
	}()
	cluster := buildCluster(t, 10,
		WithShards(1),
		WithBatchSize(4),
		WithShardFaultPlan(0, &FaultPlan{Actions: map[int]FaultAction{30: FaultDrop}}),
	)
	if _, err := cluster.ClusterDay(context.Background(), 1); err != nil {
		t.Fatalf("ClusterDay: %v", err)
	}

	var faults, degradedShardDays, degradedDays, frames int
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.EventFault:
			faults++
			if e.Shard != 0 || e.Action != "drop" {
				t.Errorf("fault event mis-tagged: %+v", e)
			}
		case obs.EventShardDay:
			if e.Action == "degraded" && e.Shard == 0 {
				degradedShardDays++
			}
		case obs.EventDay:
			if e.Action == "degraded" {
				degradedDays++
			}
		case obs.EventWireFrame:
			frames++
			if e.Codec == "" || e.N <= 0 || e.Bytes <= 0 {
				t.Errorf("wire-frame event incomplete: %+v", e)
			}
		}
	}
	if faults != 1 {
		t.Errorf("fault events = %d, want 1", faults)
	}
	if degradedShardDays != 1 {
		t.Errorf("degraded shard-day events = %d, want 1", degradedShardDays)
	}
	if degradedDays != 1 {
		t.Errorf("degraded day events = %d, want 1", degradedDays)
	}
	if frames == 0 {
		t.Error("no wire-frame events captured")
	}
}

// TestRecorderCapturesTCPFault: a fault injected on a TCP connection
// reaches the flight recorder as a shard link's does, tagged shard -1
// with the message index it struck, so an incident timeline shows the
// fault behind the resume it causes.
func TestRecorderCapturesTCPFault(t *testing.T) {
	rec := obs.DefaultRecorder()
	rec.Reset()
	rec.Enable()
	defer func() {
		rec.Disable()
		rec.Reset()
	}()
	// Agent 0's message index 2 is its day-1 consumption reply.
	plan, err := ParseFaultPlan("drop@2")
	if err != nil {
		t.Fatal(err)
	}
	runChaosDays(t, 1, func(i int) []Option {
		if i != 0 {
			return nil
		}
		return []Option{WithFaultPlan(plan), WithRetryPolicy(fastRetry)}
	})

	var faults []obs.Event
	resumes := 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.EventFault:
			faults = append(faults, e)
		case obs.EventResume:
			resumes++
		}
	}
	if len(faults) != 1 || faults[0].Action != "drop" || faults[0].N != 2 || faults[0].Shard != -1 {
		t.Errorf("fault events %+v, want one drop at message 2 on shard -1", faults)
	}
	if resumes == 0 {
		t.Error("no resume event: the dropped reply should have cut the link")
	}
}
