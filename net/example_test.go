package net_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"enki"
	enkinet "enki/net"
)

// exampleTypes is a small fixed neighborhood: three households with
// overlapping evening windows.
var exampleTypes = []enki.Type{
	{True: enki.MustPreference(18, 22, 2), ValuationFactor: 5},
	{True: enki.MustPreference(17, 23, 2), ValuationFactor: 4},
	{True: enki.MustPreference(19, 24, 3), ValuationFactor: 6},
}

// Example runs one fault-free settlement day over TCP using the
// options-based constructors, then checks the Theorem 1 budget
// identity on the resulting record.
func Example() {
	ctx := context.Background()
	var ledger bytes.Buffer
	center, err := enkinet.StartCenter("127.0.0.1:0",
		enkinet.WithPhaseDeadline(5*time.Second),
		enkinet.WithTraceSeed(7),
		enkinet.WithLedger(enkinet.NewJournal(&ledger)),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer center.Close()

	for i, typ := range exampleTypes {
		agent, err := enkinet.Connect(ctx, center.Addr(), enki.HouseholdID(i), &enkinet.Truthful{Type: typ})
		if err != nil {
			fmt.Println(err)
			return
		}
		defer agent.Close()
	}
	if err := center.WaitForAgentsContext(ctx, len(exampleTypes)); err != nil {
		fmt.Println(err)
		return
	}

	record, err := center.RunDayContext(ctx, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	var revenue float64
	for _, p := range record.Payments {
		revenue += p
	}
	residual := revenue - enki.DefaultXi*record.Cost
	fmt.Printf("households settled: %d\n", len(record.Payments))
	fmt.Printf("budget balanced: %v\n", math.Abs(residual) < 1e-9)
	fmt.Printf("degraded: %v\n", record.Substituted != nil || record.Absent != nil)
	// Output:
	// households settled: 3
	// budget balanced: true
	// degraded: false
}

// ExampleStartCluster settles many neighborhoods in one call: twelve
// households partitioned into four shards, every protocol message
// crossing its shard link as a binary batch frame. Each shard balances
// its own Theorem 1 budget and the merged record sums them.
func ExampleStartCluster() {
	ctx := context.Background()
	cluster, err := enkinet.StartCluster(ctx,
		enkinet.WithShards(4),
		enkinet.WithCodec(enkinet.CodecBinary),
		enkinet.WithTraceSeed(7),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer cluster.Close()

	for i := 0; i < 12; i++ {
		typ := exampleTypes[i%len(exampleTypes)]
		if err := cluster.Join(enki.HouseholdID(i), &enkinet.Truthful{Type: typ}); err != nil {
			fmt.Println(err)
			return
		}
	}

	record, err := cluster.ClusterDay(ctx, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	balanced := true
	for _, shard := range record.Shards {
		if math.Abs(shard.Revenue-enki.DefaultXi*shard.Cost) > 1e-9 {
			balanced = false
		}
	}
	fmt.Printf("shards settled: %d\n", len(record.Shards))
	fmt.Printf("households settled: %d\n", record.Settled)
	fmt.Printf("every shard budget balanced: %v\n", balanced)
	fmt.Printf("merged budget balanced: %v\n", math.Abs(record.Revenue-enki.DefaultXi*record.Cost) < 1e-9)
	// Output:
	// shards settled: 4
	// households settled: 12
	// every shard budget balanced: true
	// merged budget balanced: true
}

// ExampleWithFaultPlan injects a deterministic link cut into one
// agent's message stream. The agent's retry policy reconnects it, the
// center replays the message it missed, and the day settles exactly as
// a fault-free day would.
func ExampleWithFaultPlan() {
	ctx := context.Background()
	var ledger bytes.Buffer
	center, err := enkinet.StartCenter("127.0.0.1:0",
		enkinet.WithPhaseDeadline(5*time.Second),
		enkinet.WithTraceSeed(7),
		enkinet.WithLedger(enkinet.NewJournal(&ledger)),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer center.Close()

	// Message index 2 is this agent's consumption reply: the fault
	// injector cuts the link instead of sending it.
	plan, err := enkinet.ParseFaultPlan("drop@2")
	if err != nil {
		fmt.Println(err)
		return
	}
	retry := enkinet.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.2,
		Seed:        1,
	}
	for i, typ := range exampleTypes {
		var opts []enkinet.Option
		if i == 0 {
			opts = []enkinet.Option{enkinet.WithFaultPlan(plan), enkinet.WithRetryPolicy(retry)}
		}
		agent, err := enkinet.Connect(ctx, center.Addr(), enki.HouseholdID(i), &enkinet.Truthful{Type: typ}, opts...)
		if err != nil {
			fmt.Println(err)
			return
		}
		defer agent.Close()
	}
	if err := center.WaitForAgentsContext(ctx, len(exampleTypes)); err != nil {
		fmt.Println(err)
		return
	}

	record, err := center.RunDayContext(ctx, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	entries, err := enkinet.ReadLedger(bytes.NewReader(ledger.Bytes()))
	if err != nil {
		fmt.Println(err)
		return
	}
	audited := true
	for _, e := range entries {
		audited = audited && len(e.Audit()) == 0
	}
	fmt.Printf("day completed despite fault: %v\n", len(entries) == 1)
	fmt.Printf("ledger audits clean: %v\n", audited)
	fmt.Printf("households settled: %d\n", len(record.Payments))
	fmt.Printf("degraded: %v\n", record.Substituted != nil || record.Absent != nil)
	// Output:
	// day completed despite fault: true
	// ledger audits clean: true
	// households settled: 3
	// degraded: false
}

// ExampleStartReplicaSet replicates the settlement center across three
// replicas, kills the leader after the first day, and lets the lowest
// live replica take over: the agents reconnect through the set's
// dialer with their session tokens and the second day settles normally
// on the new leader.
func ExampleStartReplicaSet() {
	ctx := context.Background()
	var ledger bytes.Buffer
	rs, err := enkinet.StartReplicaSet(ctx,
		enkinet.WithReplicas(3),
		enkinet.WithPhaseDeadline(5*time.Second),
		enkinet.WithTraceSeed(7),
		enkinet.WithLedger(enkinet.NewJournal(&ledger)),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer rs.Close()

	for i, typ := range exampleTypes {
		agent, err := enkinet.Connect(ctx, rs.Addr(), enki.HouseholdID(i), &enkinet.Truthful{Type: typ},
			enkinet.WithDialer(rs.Dialer()),
			enkinet.WithRetryPolicy(enkinet.DefaultRetryPolicy()),
		)
		if err != nil {
			fmt.Println(err)
			return
		}
		defer agent.Close()
	}
	if err := rs.WaitForAgentsContext(ctx, len(exampleTypes)); err != nil {
		fmt.Println(err)
		return
	}

	if _, err := rs.RunDayContext(ctx, 1); err != nil {
		fmt.Println(err)
		return
	}
	if err := rs.Kill(rs.Leader()); err != nil {
		fmt.Println(err)
		return
	}
	record, err := rs.RunDayContext(ctx, 2)
	if err != nil {
		fmt.Println(err)
		return
	}

	var revenue float64
	for _, p := range record.Payments {
		revenue += p
	}
	residual := revenue - enki.DefaultXi*record.Cost
	entries, err := enkinet.ReadLedger(bytes.NewReader(ledger.Bytes()))
	if err != nil {
		fmt.Println(err)
		return
	}
	audited := true
	for _, e := range entries {
		audited = audited && len(e.Audit()) == 0
	}
	fmt.Printf("leader after failover: %d\n", rs.Leader())
	fmt.Printf("days in merged ledger: %d\n", len(entries))
	fmt.Printf("ledger audits clean: %v\n", audited)
	fmt.Printf("budget balanced: %v\n", math.Abs(residual) < 1e-9)
	fmt.Printf("degraded: %v\n", record.Substituted != nil || record.Absent != nil)
	// Output:
	// leader after failover: 1
	// days in merged ledger: 2
	// ledger audits clean: true
	// budget balanced: true
	// degraded: false
}
