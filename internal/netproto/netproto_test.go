package netproto

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/pricing"
	"enki/internal/sched"
	"enki/internal/settle"
)

var quad = pricing.Quadratic{Sigma: pricing.DefaultSigma}

// newTestCenter starts a center with the greedy scheduler over the
// quadratic pricer, a 5 s phase deadline, and opts on top.
func newTestCenter(t *testing.T, opts ...Option) *Center {
	t.Helper()
	base := []Option{
		WithScheduler(&sched.Greedy{Pricer: quad, Rating: 2}),
		WithPricer(quad),
		WithPhaseDeadline(5 * time.Second),
	}
	c, err := StartCenter("127.0.0.1:0", append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitForAgents waits up to timeout for n agents to connect to c.
func waitForAgents(c *Center, n int, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.WaitForAgentsContext(ctx, n)
}

func TestReadBatchRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadBatch(&buf); err == nil {
		t.Error("oversized frame should be rejected")
	}
}

func TestCenterConfigValidation(t *testing.T) {
	bad := centerConfig{Config: settle.Config{
		Pricer:    quad,
		Mechanism: mechanism.DefaultConfig(),
		Rating:    2,
	}}
	if err := bad.validate(); err == nil {
		t.Error("nil scheduler should be rejected")
	}
	mech := mechanism.DefaultConfig()
	mech.Xi = 0.5
	for name, opt := range map[string]Option{
		"nil pricer":    WithPricer(nil),
		"zero rating":   WithRating(0),
		"xi < 1":        WithMechanism(mech),
		"unknown codec": WithCodec("zstd"),
	} {
		if c, err := StartCenter("127.0.0.1:0", opt); err == nil {
			c.Close()
			t.Errorf("%s should be rejected", name)
		}
	}
}

func TestFullDayCycleTruthfulAgents(t *testing.T) {
	c := newTestCenter(t)

	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
		{True: core.MustPreference(19, 24, 3), ValuationFactor: 6},
		{True: core.MustPreference(8, 14, 2), ValuationFactor: 2},
	}
	agents := make([]*Agent, len(types))
	for i, typ := range types {
		a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		defer a.Close()
	}
	if err := waitForAgents(c, len(types), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	record, err := c.RunDayContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(record.Reports) != len(types) {
		t.Fatalf("got %d reports, want %d", len(record.Reports), len(types))
	}
	for i, r := range record.Reports {
		if r.Pref != types[r.ID].True {
			t.Errorf("report %d = %v, want %v", i, r.Pref, types[r.ID].True)
		}
	}
	// Truthful agents follow allocations: no defection, exact budget.
	for i, d := range record.Defection {
		if d != 0 {
			t.Errorf("defection[%d] = %g, want 0", i, d)
		}
	}
	var revenue float64
	for _, p := range record.Payments {
		revenue += p
	}
	if math.Abs(revenue-mechanism.DefaultXi*record.Cost) > 1e-6 {
		t.Errorf("revenue %g != ξ·κ = %g", revenue, mechanism.DefaultXi*record.Cost)
	}

	// Every agent observed its settlement.
	deadline := time.Now().Add(2 * time.Second)
	for i, a := range agents {
		for len(a.History()) == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		hist := a.History()
		if len(hist) != 1 {
			t.Fatalf("agent %d history length %d, want 1", i, len(hist))
		}
		if hist[0].TotalCost != record.Cost {
			t.Errorf("agent %d saw cost %g, want %g", i, hist[0].TotalCost, record.Cost)
		}
	}
}

func TestMultiDayAndDefector(t *testing.T) {
	c := newTestCenter(t)

	honest := &Truthful{Type: core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}}
	liarType := core.Type{True: core.MustPreference(18, 20, 2), ValuationFactor: 5}
	liar := &Misreporter{
		Type:     liarType,
		Reported: core.MustPreference(14, 20, 2), // widened window, Section V-B style
	}
	a1, err := Connect(context.Background(), c.Addr(), 0, honest)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := Connect(context.Background(), c.Addr(), 1, liar)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if err := waitForAgents(c, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	for day := 1; day <= 3; day++ {
		record, err := c.RunDayContext(context.Background(), day)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		for i, r := range record.Reports {
			if r.ID != 1 {
				continue
			}
			cons := record.Consumptions[i].Interval
			if !liarType.True.Window.Covers(cons) {
				t.Errorf("day %d: liar consumed %v outside true window", day, cons)
			}
			if core.Defected(record.Assignments[i].Interval, cons) {
				if record.Defection[i] < 0 {
					t.Errorf("day %d: negative defection score", day)
				}
				if record.Flexibility[i] != 0 {
					t.Errorf("day %d: defector kept flexibility %g", day, record.Flexibility[i])
				}
			}
		}
	}
}

func TestRunDayNoAgents(t *testing.T) {
	c := newTestCenter(t)
	if _, err := c.RunDayContext(context.Background(), 1); err == nil {
		t.Error("RunDay with no agents should fail")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	c := newTestCenter(t)
	typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
	a1, err := Connect(context.Background(), c.Addr(), 7, &Truthful{Type: typ})
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	if _, err := Connect(context.Background(), c.Addr(), 7, &Truthful{Type: typ}); err == nil {
		t.Error("duplicate household ID should be rejected at registration")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("unexpected rejection error: %v", err)
	}
}

func TestAgentDisconnectFailsPhase(t *testing.T) {
	c := newTestCenter(t)
	typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
	a1, err := Connect(context.Background(), c.Addr(), 0, &Truthful{Type: typ})
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := Connect(context.Background(), c.Addr(), 1, &Truthful{Type: typ})
	if err != nil {
		t.Fatal(err)
	}
	if err := waitForAgents(c, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	a2.Close() // drop before the day starts

	// The day must fail cleanly (either at send or collect), not hang.
	done := make(chan error, 1)
	go func() {
		_, err := c.RunDayContext(context.Background(), 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			// A race is possible: if the drop was processed before the
			// snapshot, the day legitimately ran with one agent.
			if c.AgentCount() != 1 {
				t.Error("RunDay succeeded despite a missing agent")
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunDay hung after agent disconnect")
	}
}

func TestWaitForAgentsTimeout(t *testing.T) {
	c := newTestCenter(t)
	if err := waitForAgents(c, 3, 50*time.Millisecond); err == nil {
		t.Error("WaitForAgents should time out with no agents")
	}
}

func TestAgentCleanShutdownNoError(t *testing.T) {
	c := newTestCenter(t)
	typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
	a, err := Connect(context.Background(), c.Addr(), 0, &Truthful{Type: typ})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Err(); err != nil {
		t.Errorf("clean shutdown should leave no terminal error, got %v", err)
	}
}

func TestClosestConsumptionPolicy(t *testing.T) {
	truth := core.MustPreference(18, 20, 2)
	m := &Misreporter{Type: core.Type{True: truth, ValuationFactor: 1}, Reported: core.MustPreference(14, 20, 2)}
	// Allocation (14,16) misses the true window: defect to (18,20).
	if got := m.Consume(1, core.Interval{Begin: 14, End: 16}); got != (core.Interval{Begin: 18, End: 20}) {
		t.Errorf("Consume = %v, want (18,20)", got)
	}
	// Allocation (18,20) satisfies the true preference: follow it.
	if got := m.Consume(1, core.Interval{Begin: 18, End: 20}); got != (core.Interval{Begin: 18, End: 20}) {
		t.Errorf("Consume = %v, want (18,20)", got)
	}
}
