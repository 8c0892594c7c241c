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
	"enki/internal/obs"
)

// fastRetry is the chaos suite's reconnect policy: small deterministic
// backoffs so resumes land well inside the phase deadline.
var fastRetry = RetryPolicy{
	MaxAttempts: 5,
	BaseDelay:   2 * time.Millisecond,
	MaxDelay:    50 * time.Millisecond,
	Multiplier:  2,
	Jitter:      0.2,
	Seed:        1,
}

// chaosCenter starts an options-built center writing its audit ledger
// to buf.
func chaosCenter(t *testing.T, buf *bytes.Buffer, opts ...Option) *Center {
	t.Helper()
	base := []Option{WithTraceSeed(7), WithLedger(NewJournal(buf))}
	c, err := StartCenter("127.0.0.1:0", append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// runChaosDays runs a fixed truthful neighborhood for the given number
// of days, with per-agent options from optsFor (nil means fault-free),
// and returns the ledger bytes. The topology and seeds are fixed so two
// invocations differ only by their fault plans.
func runChaosDays(t *testing.T, days int, optsFor func(i int) []Option) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := chaosCenter(t, &buf)
	agents := make([]*Agent, len(traceTestTypes))
	for i, typ := range traceTestTypes {
		var opts []Option
		if optsFor != nil {
			opts = optsFor(i)
		}
		a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	if err := c.WaitForAgentsContext(context.Background(), len(agents)); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= days; day++ {
		record, err := c.RunDayContext(context.Background(), day)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if record.Substituted != nil || record.Absent != nil {
			t.Fatalf("day %d settled degraded (substituted %v, absent %v); faults should have resumed",
				day, record.Substituted, record.Absent)
		}
	}
	return buf.Bytes()
}

// TestChaosPermanentlyDarkAgentSettlesAsDefector is the tentpole
// acceptance test: a settlement day with one agent that reports a
// preference and then goes permanently dark must complete, bill the
// dark household via the Eq. 5 defector path from its journaled report,
// and keep the Theorem 1 budget residual at zero — with the
// substitution recorded in the audit ledger and the entry passing a
// full equation audit.
func TestChaosPermanentlyDarkAgentSettlesAsDefector(t *testing.T) {
	var buf bytes.Buffer
	c := chaosCenter(t, &buf, WithPhaseDeadline(300*time.Millisecond))

	for i, typ := range traceTestTypes[:2] {
		a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	// Household 2 answers the preference request and then falls silent:
	// dark past the consumption deadline.
	darkPref := core.MustPreference(18, 23, 2)
	conn := rawDial(t, c.Addr())
	if err := conn.Send(&Message{Kind: KindHello, ID: 2}); err != nil {
		t.Fatal(err)
	}
	if w, err := conn.Recv(); err != nil || w.Kind != KindWelcome {
		t.Fatalf("registration failed: %v %v", w, err)
	}
	go func() {
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if m.Kind == KindRequest {
				_ = conn.Send(&Message{Kind: KindPreference, ID: 2, Day: m.Day, Pref: &darkPref})
			}
			// Allocations and payments go unanswered: permanently dark.
		}
	}()
	if err := c.WaitForAgentsContext(context.Background(), 3); err != nil {
		t.Fatal(err)
	}

	record, err := c.RunDayContext(context.Background(), 1)
	if err != nil {
		t.Fatalf("degraded day should complete, got %v", err)
	}
	if len(record.Reports) != 3 {
		t.Fatalf("%d reports, want 3 (the dark household reported)", len(record.Reports))
	}
	if len(record.Absent) != 0 {
		t.Errorf("absent = %v, want none (the dark household did report)", record.Absent)
	}
	idx := -1
	for i, r := range record.Reports {
		if r.ID == 2 {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("dark household missing from reports")
	}
	if record.Substituted == nil || !record.Substituted[idx] {
		t.Fatalf("substituted = %v, want household 2 marked", record.Substituted)
	}
	for i := range record.Reports {
		if i != idx && record.Substituted[i] {
			t.Errorf("live household %d marked substituted", record.Reports[i].ID)
		}
	}
	if got, want := record.Consumptions[idx].Interval, mechanism.DarkConsumption(darkPref); got != want {
		t.Errorf("imputed consumption %v, want DarkConsumption %v", got, want)
	}
	if record.Flexibility[idx] != 0 {
		t.Errorf("dark household kept flexibility %g, want 0 (defector path)", record.Flexibility[idx])
	}

	// Theorem 1 holds exactly on the degraded day.
	var revenue float64
	for _, p := range record.Payments {
		revenue += p
	}
	if residual := revenue - mechanism.DefaultXi*record.Cost; math.Abs(residual) > 1e-9 {
		t.Errorf("budget residual %g, want 0", residual)
	}

	// The ledger records the substitution and passes the full audit.
	entries, err := mechanism.ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d ledger entries, want 1", len(entries))
	}
	h := entries[0].Households[idx]
	if !h.Substituted || !h.Defected {
		t.Errorf("ledger row: substituted=%v defected=%v, want both true", h.Substituted, h.Defected)
	}
	if bad := entries[0].Audit(); len(bad) != 0 {
		t.Errorf("degraded-day audit found mismatches: %v", bad)
	}
}

// TestChaosDropThenResumeByteIdenticalLedger is the resume acceptance
// test: an agent whose link is cut mid-day (its consumption reply is
// dropped on the wire) reconnects under its retry policy, presents its
// session token, is replayed the allocation it missed, and the day —
// and every later day — settles to the byte-identical ledger of a
// fault-free run.
func TestChaosDropThenResumeByteIdenticalLedger(t *testing.T) {
	resumesBefore := obs.Default().Counter(obs.MetricNetResumesTotal, obs.LabelSide, obs.SideCenter).Value()

	clean := runChaosDays(t, 2, nil)
	if len(clean) == 0 {
		t.Fatal("empty fault-free ledger")
	}
	// Agent 0's message index 2 is its day-1 consumption reply
	// (0 = hello, 1 = preference reply).
	plan, err := ParseFaultPlan("drop@2")
	if err != nil {
		t.Fatal(err)
	}
	faulted := runChaosDays(t, 2, func(i int) []Option {
		if i != 0 {
			return nil
		}
		return []Option{WithFaultPlan(plan), WithRetryPolicy(fastRetry)}
	})
	if !bytes.Equal(clean, faulted) {
		t.Errorf("ledger bytes differ between fault-free and drop-then-resume runs:\n%s\nvs\n%s", clean, faulted)
	}
	if got := obs.Default().Counter(obs.MetricNetResumesTotal, obs.LabelSide, obs.SideCenter).Value(); got <= resumesBefore {
		t.Errorf("center resume counter %d, want > %d (a session resumed)", got, resumesBefore)
	}
}

// TestChaosMixedFaultsByteIdenticalLedger drives drop, garble, dup, and
// delay through full settlement days at once: every fault either
// resumes or is absorbed, and the ledger stays byte-identical to the
// fault-free run.
func TestChaosMixedFaultsByteIdenticalLedger(t *testing.T) {
	clean := runChaosDays(t, 2, nil)
	optsFor := func(i int) []Option {
		switch i {
		case 0: // consumption reply dropped: link cut, resume
			plan, _ := ParseFaultPlan("drop@2")
			return []Option{WithFaultPlan(plan), WithRetryPolicy(fastRetry)}
		case 1: // preference reply garbled: center drops the link, resume
			plan, _ := ParseFaultPlan("garble@1")
			return []Option{WithFaultPlan(plan), WithRetryPolicy(fastRetry)}
		default: // duplicated and delayed replies: absorbed, no resume
			plan, _ := ParseFaultPlan("dup@1,delay@3,hold=5ms")
			return []Option{WithFaultPlan(plan), WithRetryPolicy(fastRetry)}
		}
	}
	faulted := runChaosDays(t, 2, optsFor)
	if !bytes.Equal(clean, faulted) {
		t.Error("ledger bytes differ between fault-free and mixed-fault runs")
	}
	// The same fault scenario replays to the same ledger: faults,
	// backoff jitter, and tokens are all seeded.
	again := runChaosDays(t, 2, optsFor)
	if !bytes.Equal(faulted, again) {
		t.Error("ledger bytes differ between two identical fault runs")
	}
}

// TestSessionTokenGatesResume exercises the resume handshake directly:
// a live session rejects a second registration, a dark session rejects
// a wrong token, and the issued token resumes.
func TestSessionTokenGatesResume(t *testing.T) {
	var buf bytes.Buffer
	c := chaosCenter(t, &buf)

	conn := rawDial(t, c.Addr())
	if err := conn.Send(&Message{Kind: KindHello, ID: 5}); err != nil {
		t.Fatal(err)
	}
	w, err := conn.Recv()
	if err != nil || w.Kind != KindWelcome {
		t.Fatalf("registration failed: %v %v", w, err)
	}
	if w.Token == "" {
		t.Fatal("welcome carried no session token")
	}

	// Live session: any second hello for the ID is a duplicate.
	dup := rawDial(t, c.Addr())
	if err := dup.Send(&Message{Kind: KindHello, ID: 5, Token: w.Token}); err != nil {
		t.Fatal(err)
	}
	if m, err := dup.Recv(); err != nil || m.Kind != KindError || !strings.Contains(m.Err, "duplicate") {
		t.Fatalf("hello against a live session: %v %v, want duplicate rejection", m, err)
	}

	// Dark session: a wrong token is rejected, the issued one resumes.
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.AgentCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	impostor := rawDial(t, c.Addr())
	if err := impostor.Send(&Message{Kind: KindHello, ID: 5, Token: "0123456789abcdef"}); err != nil {
		t.Fatal(err)
	}
	if m, err := impostor.Recv(); err != nil || m.Kind != KindError || !strings.Contains(m.Err, "token") {
		t.Fatalf("hello with a wrong token: %v %v, want token rejection", m, err)
	}
	resumed := rawDial(t, c.Addr())
	if err := resumed.Send(&Message{Kind: KindHello, ID: 5, Token: w.Token}); err != nil {
		t.Fatal(err)
	}
	if m, err := resumed.Recv(); err != nil || m.Kind != KindWelcome {
		t.Fatalf("resume with the issued token: %v %v, want welcome", m, err)
	}
}

// TestRunDayContextCancel: a cancelled context aborts a phase promptly
// instead of waiting out the deadline.
func TestRunDayContextCancel(t *testing.T) {
	var buf bytes.Buffer
	c := chaosCenter(t, &buf) // default 10s phase deadline

	conn := rawDial(t, c.Addr())
	if err := conn.Send(&Message{Kind: KindHello, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.RunDayContext(ctx, 1)
	if err == nil {
		t.Fatal("RunDayContext should fail when its context expires")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, context expired after 100ms", elapsed)
	}
}

// TestWaitForAgentsContextCancel mirrors the ctx conversion of the old
// timeout-based wait.
func TestWaitForAgentsContextCancel(t *testing.T) {
	var buf bytes.Buffer
	c := chaosCenter(t, &buf)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.WaitForAgentsContext(ctx, 3); err == nil {
		t.Error("WaitForAgentsContext should fail when its context expires")
	}
}
