package netproto

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/obs"
)

// rawDial opens a raw TCP connection to the center for protocol-abuse
// tests.
func rawDial(t *testing.T, addr string) RawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return RawConn{conn}
}

func TestCenterIgnoresNonHelloFirstFrame(t *testing.T) {
	c := newTestCenter(t)
	conn := rawDial(t, c.Addr())
	// First frame must be a hello; anything else drops the connection.
	if err := conn.Send(&Message{Kind: KindPreference, ID: 1}); err != nil {
		t.Fatal(err)
	}
	// The center should close the connection without registering.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Recv(); err == nil {
		t.Error("expected the center to drop a connection that skips hello")
	}
	if c.AgentCount() != 0 {
		t.Errorf("agent count = %d, want 0", c.AgentCount())
	}
}

func TestCenterDropsGarbageFrame(t *testing.T) {
	c := newTestCenter(t)
	conn := rawDial(t, c.Addr())
	// A syntactically broken frame: huge length prefix.
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], MaxFrameSize+1)
	if _, err := conn.Write(header[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Recv(); err == nil {
		t.Error("expected the center to drop a connection with an oversized frame")
	}
}

func TestCenterRejectsUnsolicitedMessageDuringPhase(t *testing.T) {
	c := newTestCenter(t)
	conn := rawDial(t, c.Addr())
	if err := conn.Send(&Message{Kind: KindHello, ID: 9}); err != nil {
		t.Fatal(err)
	}
	welcome, err := conn.Recv()
	if err != nil || welcome.Kind != KindWelcome {
		t.Fatalf("registration failed: %v %v", welcome, err)
	}

	// Start a day in the background; answer the preference request with
	// the wrong message kind.
	done := make(chan error, 1)
	go func() {
		_, err := c.RunDayContext(context.Background(), 1)
		done <- err
	}()
	req, err := conn.Recv()
	if err != nil || req.Kind != KindRequest {
		t.Fatalf("expected request, got %v %v", req, err)
	}
	iv := core.Interval{Begin: 18, End: 20}
	if err := conn.Send(&Message{Kind: KindConsumption, ID: 9, Day: 1, Interval: &iv}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("RunDay should fail on an out-of-phase message")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunDay hung on an out-of-phase message")
	}
}

func TestCenterRejectsPreferenceFrameWithoutPref(t *testing.T) {
	c := newTestCenter(t)
	conn := rawDial(t, c.Addr())
	if err := conn.Send(&Message{Kind: KindHello, ID: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.RunDayContext(context.Background(), 1)
		done <- err
	}()
	if _, err := conn.Recv(); err != nil { // the request
		t.Fatal(err)
	}
	if err := conn.Send(&Message{Kind: KindPreference, ID: 3, Day: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("RunDay should fail on a preference frame without a preference")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunDay hung")
	}
}

func TestCenterRejectsWrongDurationConsumption(t *testing.T) {
	centerRejectsConsumption(t, newTestCenter(t), &core.Interval{Begin: 18, End: 21}) // duration 3, declared 2
}

// TestCenterRejectsConsumptionFrameWithoutInterval: a consumption frame
// without its interval reaches the machine as the zero interval, which
// fails the one consumption rule, so the day fails.
func TestCenterRejectsConsumptionFrameWithoutInterval(t *testing.T) {
	if err := centerRejectsConsumption(t, newTestCenter(t), nil); !strings.Contains(err.Error(), "consumed 0 slots, declared 2") {
		t.Errorf("day failed with %v, want a zero-slot rejection", err)
	}
}

// TestCenterRejectsOffDayConsumption: a consumption of the declared
// duration but outside the day fails the day instead of settling with
// its load dropped from κ(ω).
func TestCenterRejectsOffDayConsumption(t *testing.T) {
	if err := centerRejectsConsumption(t, newTestCenter(t), &core.Interval{Begin: 30, End: 32}); !strings.Contains(err.Error(), "outside day") {
		t.Errorf("day failed with %v, want an outside-day rejection", err)
	}
}

// TestCenterFailedDayShowsFailed: a failed TCP day shows as failed on
// the operator plane, the way a failed shard does — phase "failed" with
// no deadline left, one unhealthy row carrying the error, and a failed
// day event — while nothing counts it as settled.
func TestCenterFailedDayShowsFailed(t *testing.T) {
	rec := obs.DefaultRecorder()
	rec.Reset()
	rec.Enable()
	defer func() {
		rec.Disable()
		rec.Reset()
	}()
	latency := obs.Default().Histogram(obs.MetricNetDaySettleMS, obs.LatencyBucketsMS)
	before := latency.Count()

	c := newTestCenter(t, WithTraceSeed(3))
	dayErr := centerRejectsConsumption(t, c, &core.Interval{Begin: 30, End: 32})

	if ds := c.DayStatus(); ds.Phase != "failed" || ds.DeadlineRemainingMS != 0 || ds.DaysSettled != 0 || ds.LastCost != 0 {
		t.Errorf("day status %+v, want phase failed, no deadline and nothing settled", ds)
	}
	tid := obs.DeriveTraceID(3, 1)
	want := obs.ShardStatus{Shard: 0, Err: dayErr.Error(), TraceID: tid, LastDay: 1, Households: 1}
	if rows := c.ShardStatuses(); len(rows) != 1 || rows[0] != want {
		t.Errorf("shard rows %+v, want the one unhealthy row %+v", rows, want)
	}
	if latency.Count() != before {
		t.Error("the failed day was observed as a day-settle latency")
	}
	var days []obs.Event
	for _, e := range rec.Events() {
		if e.Kind == obs.EventDay {
			days = append(days, e)
		}
	}
	if len(days) != 1 || days[0].Action != "failed" || days[0].Err != dayErr.Error() || days[0].TraceID != tid || days[0].Day != 1 {
		t.Errorf("day events %+v, want one failed event carrying the error", days)
	}
}

// centerRejectsConsumption registers one raw household with c that
// reports a 2-slot preference and answers its allocation with bad (nil
// sends the consumption frame without an interval), and returns the
// error that must fail the day.
func centerRejectsConsumption(t *testing.T, c *Center, bad *core.Interval) error {
	t.Helper()
	conn := rawDial(t, c.Addr())
	if err := conn.Send(&Message{Kind: KindHello, ID: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.RunDayContext(context.Background(), 1)
		done <- err
	}()
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	pref := core.MustPreference(18, 22, 2)
	if err := conn.Send(&Message{Kind: KindPreference, ID: 4, Day: 1, Pref: &pref}); err != nil {
		t.Fatal(err)
	}
	alloc, err := conn.Recv()
	if err != nil || alloc.Kind != KindAllocation {
		t.Fatalf("expected allocation, got %v %v", alloc, err)
	}
	if err := conn.Send(&Message{Kind: KindConsumption, ID: 4, Day: 1, Interval: bad}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("RunDayContext should reject the consumption %v", bad)
		}
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("RunDayContext hung")
	}
	return nil
}

func TestCenterPhaseTimeout(t *testing.T) {
	c := newTestCenter(t, WithPhaseDeadline(200*time.Millisecond))

	conn := rawDial(t, c.Addr())
	if err := conn.Send(&Message{Kind: KindHello, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	// Never answer the preference request: the phase must time out.
	start := time.Now()
	_, err := c.RunDayContext(context.Background(), 1)
	if err == nil {
		t.Fatal("RunDay should time out when an agent stays silent")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v, configured 200ms", elapsed)
	}
}

func TestLargeNeighborhoodOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("large integration test")
	}
	c := newTestCenter(t)
	const n = 40
	agents := make([]*Agent, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			begin := 14 + i%6
			typ := core.Type{
				True:            core.MustPreference(begin, min(begin+4+i%3, 24), 2),
				ValuationFactor: 5,
			}
			a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
			if err != nil {
				errs[i] = err
				return
			}
			agents[i] = a
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	defer func() {
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
	}()
	if err := waitForAgents(c, n, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= 3; day++ {
		record, err := c.RunDayContext(context.Background(), day)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if len(record.Reports) != n {
			t.Fatalf("day %d: %d reports, want %d", day, len(record.Reports), n)
		}
		var revenue float64
		for _, p := range record.Payments {
			revenue += p
		}
		if diff := revenue - mechanism.DefaultXi*record.Cost; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("day %d: revenue %g != ξκ %g", day, revenue, mechanism.DefaultXi*record.Cost)
		}
	}
}

func TestConcurrentWritesSerialized(t *testing.T) {
	// The per-connection write mutex must keep frames intact even when
	// payment broadcasts race with the next day's requests. Exercise a
	// few fast consecutive days.
	c := newTestCenter(t)
	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(16, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 3), ValuationFactor: 5},
	}
	for i, typ := range types {
		a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
	}
	if err := waitForAgents(c, len(types), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= 10; day++ {
		if _, err := c.RunDayContext(context.Background(), day); err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
	}
}

func TestAgentReconnectAfterDrop(t *testing.T) {
	// A household whose connection drops can re-register with the same
	// ID (the center frees the slot on disconnect) and the next day
	// proceeds normally.
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
	if _, err := c.RunDayContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	a2.Close()
	// Wait for the center to notice the drop.
	deadline := time.Now().Add(5 * time.Second)
	for c.AgentCount() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.AgentCount() != 1 {
		t.Fatalf("agent count = %d after drop, want 1", c.AgentCount())
	}

	a2b, err := Connect(context.Background(), c.Addr(), 1, &Truthful{Type: typ})
	if err != nil {
		t.Fatalf("reconnect with the same ID rejected: %v", err)
	}
	defer a2b.Close()
	if err := waitForAgents(c, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	record, err := c.RunDayContext(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(record.Reports) != 2 {
		t.Fatalf("day 2 has %d reports, want 2", len(record.Reports))
	}
}

// TestAgentRetryExhaustionIsTerminal pins the "bounded" half of bounded
// retry: when the center is gone for good, a retrying agent makes
// exactly MaxAttempts reconnect attempts — each drawn from its seeded
// jitter stream — and then reports a terminal error instead of
// spinning forever.
func TestAgentRetryExhaustionIsTerminal(t *testing.T) {
	c := newTestCenter(t)
	typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
	retry := RetryPolicy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.2, Seed: 1}
	a, err := Connect(context.Background(), c.Addr(), 0, &Truthful{Type: typ}, WithRetryPolicy(retry))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := waitForAgents(c, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	before := obs.Default().Counter(obs.MetricNetRetriesTotal).Value()
	c.Close() // the center is gone for good: every reconnect must fail

	deadline := time.Now().Add(10 * time.Second)
	for a.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if a.Err() == nil {
		t.Fatal("agent never reported a terminal error after retry exhaustion")
	}
	if got := obs.Default().Counter(obs.MetricNetRetriesTotal).Value() - before; got != uint64(retry.MaxAttempts) {
		t.Errorf("retry counter advanced by %d, want exactly MaxAttempts=%d", got, retry.MaxAttempts)
	}
}

// TestConnectContextBoundsHandshake: Connect's context bounds the
// hello/welcome exchange, not just the dial — against a center that
// accepts and never answers, Connect fails once the context expires.
func TestConnectContextBoundsHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
	done := make(chan error, 1)
	go func() {
		a, err := Connect(ctx, ln.Addr().String(), 1, &Truthful{Type: typ})
		if err == nil {
			a.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Connect against a silent center: %v, want the context's deadline", err)
		}
	case <-time.After(3 * time.Second):
		(<-accepted).Close() // unblock the handshake so the goroutine exits
		<-done
		t.Fatal("Connect still blocked 3 s after its 200 ms deadline")
	}
	select {
	case conn := <-accepted:
		conn.Close()
	default:
	}
}

// TestAgentCloseBoundsSilentReconnect: Close bounds a reconnect in
// progress — against a listener that accepts the redial and never
// answers the hello, Close still returns promptly.
func TestAgentCloseBoundsSilentReconnect(t *testing.T) {
	c := newTestCenter(t)
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := silent.Accept(); err == nil {
			accepted <- conn
		}
	}()
	// The first dial reaches the center; every redial the silent listener.
	dials := 0
	dial := func(ctx context.Context) (net.Conn, error) {
		addr := silent.Addr().String()
		if dials++; dials == 1 {
			addr = c.Addr()
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	retry := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1, Seed: 1}
	typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
	a, err := Connect(context.Background(), "", 1, &Truthful{Type: typ}, WithDialer(dial), WithRetryPolicy(retry))
	if err != nil {
		t.Fatal(err)
	}
	c.Close() // the link drops; the agent redials into the silent listener
	var conn net.Conn
	select {
	case conn = <-accepted:
		defer conn.Close()
	case <-time.After(5 * time.Second):
		a.Close()
		t.Fatal("the agent never redialed")
	}

	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		conn.Close() // fail the handshake so Close can return
		<-closed
		t.Fatal("Close still blocked 3 s on a reconnect handshake the listener never answered")
	}
}
