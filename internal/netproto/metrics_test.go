package netproto

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/obs"
)

// TestMetricsScrapeAfterDayCycle is the observability acceptance test
// for the wire protocol: after one full day cycle the debug handler's
// /metrics page must expose the netproto, scheduler, and mechanism
// series — the same page cmd/enkid serves under -http.
func TestMetricsScrapeAfterDayCycle(t *testing.T) {
	obs.Default().Reset()
	c := newTestCenter(t)

	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
		{True: core.MustPreference(19, 24, 3), ValuationFactor: 6},
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
	if _, err := c.RunDayContext(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	op := obs.NewOperator(obs.Default())
	op.SetReady(true)
	srv := httptest.NewServer(op.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, series := range []string{
		obs.MetricNetDaysTotal,
		obs.MetricNetMessagesTotal + `{direction="sent"}`,
		obs.MetricNetMessagesTotal + `{direction="received"}`,
		obs.MetricNetBytesTotal + `{direction="sent"}`,
		obs.MetricNetPhaseLatencyMS,
		obs.MetricSchedAllocateTotal + `{scheduler="enki-greedy"}`,
		obs.MetricSchedAllocateLatencyMS,
		obs.MetricMechSettlementsTotal,
		obs.MetricMechFlexibilityScore,
		obs.MetricMechPaymentDollars,
		obs.MetricMechBudgetResidual,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing series %s", series)
		}
	}

	// The day actually ran: the day counter and per-direction message
	// counters must be non-zero on the page, not just present.
	if !strings.Contains(body, obs.MetricNetDaysTotal+" 1") {
		t.Errorf("day counter not incremented:\n%s", body)
	}
	if strings.Contains(body, obs.MetricNetMessagesTotal+`{direction="sent"} 0`) {
		t.Error("sent-message counter still zero after a day cycle")
	}

	// /healthz responds.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz: status %d", hresp.StatusCode)
	}
}

// TestTCPFramesCountedOnce: every TCP frame carries one message and is
// counted once in each wire series, registration and garbled frames
// included. Over a binary-codec day with one garbled reply, the sent
// frame count equals the sent message count, and the per-codec byte
// series (JSON registration, binary day cycle) sum to the byte total.
func TestTCPFramesCountedOnce(t *testing.T) {
	plan, err := ParseFaultPlan("garble@1") // household 0's day-1 preference reply
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Snapshot()
	c := newTestCenter(t, WithCodec(CodecBinary))
	agents := make([]*Agent, len(traceTestTypes))
	for i, typ := range traceTestTypes {
		var opts []Option
		if i == 0 {
			opts = []Option{WithFaultPlan(plan), WithRetryPolicy(fastRetry)}
		}
		a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		agents[i] = a
	}
	if err := waitForAgents(c, len(agents), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	record, err := c.RunDayContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if record.Substituted != nil || record.Absent != nil {
		t.Fatalf("day settled degraded (substituted %v, absent %v); the garbled reply should have resumed",
			record.Substituted, record.Absent)
	}
	// Every agent has sent its last frame once it has read its payment.
	waitForHistories(t, agents, 1)
	after := obs.Default().Snapshot()

	delta := func(key string) uint64 { return after.Counters[key] - before.Counters[key] }
	if n := delta(obs.MetricNetFaultsTotal + `{action="garble"}`); n != 1 {
		t.Fatalf("%d garbled frames, want 1", n)
	}
	sent := `{direction="sent"}`
	frames, msgs := delta(obs.MetricNetFramesTotal+sent), delta(obs.MetricNetMessagesTotal+sent)
	if frames == 0 || frames != msgs {
		t.Errorf("sent %d frames carrying %d messages, want one frame per message", frames, msgs)
	}
	var codecBytes uint64
	for key := range after.Counters {
		if strings.HasPrefix(key, obs.MetricNetCodecBytesTotal+"{") && strings.Contains(key, `direction="sent"`) {
			codecBytes += delta(key)
		}
	}
	if total := delta(obs.MetricNetBytesTotal + sent); codecBytes != total {
		t.Errorf("per-codec sent bytes sum to %d, want the %d-byte total", codecBytes, total)
	}
}
