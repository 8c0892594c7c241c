package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"enki/internal/obs"
)

// TestHelpOutputDeterministicAndNamespaced is the flag-surface docs
// test: -help must render identically run to run (the flag package
// sorts lexically, grouping the obs.*, replica.*, shard.*, wire.*
// namespaces), list every namespaced flag, and list each flag under one
// name only: no flat alias remains.
func TestHelpOutputDeterministicAndNamespaced(t *testing.T) {
	render := func() string {
		fs, _ := newFlagSet()
		var buf bytes.Buffer
		fs.SetOutput(&buf)
		fs.Usage()
		return buf.String()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("-help output changed between runs:\n%s\nvs\n%s", first, got)
		}
	}

	namespaced := []string{
		"-shard.agents", "-shard.days", "-shard.wait", "-shard.sigma", "-shard.rating", "-shard.xi",
		"-wire.addr", "-wire.codec", "-wire.phase-deadline", "-wire.fault-plan",
		"-replica.n", "-replica.quorum-timeout",
		"-obs.ledger", "-obs.http", "-obs.reporting", "-obs.trace-out", "-obs.trace-seed", "-obs.trace-limit",
		"-obs.bundle-dir", "-obs.bundle-cpu",
	}
	for _, name := range namespaced {
		if !strings.Contains(first, name+" ") && !strings.Contains(first, name+"\n") {
			t.Errorf("-help missing %s", name)
		}
	}
	if strings.Contains(first, "alias for") {
		t.Errorf("-help lists a flag alias:\n%s", first)
	}
}

// TestFreshDaemonMetricsPage checks the acceptance criterion for the
// -http flag: a scrape of a freshly started daemon (ephemeral port,
// no agents, no days run) already lists the netproto, scheduler, and
// mechanism series, because preregisterMetrics creates them at zero.
func TestFreshDaemonMetricsPage(t *testing.T) {
	obs.Default().Reset()
	preregisterMetrics("enki-greedy")

	op := obs.NewOperator(obs.Default())
	op.SetReady(true)
	srv, err := obs.ServeOperator("127.0.0.1:0", op)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, series := range []string{
		obs.MetricNetDaysTotal,
		obs.MetricNetMessagesTotal + `{direction="sent"}`,
		obs.MetricNetTimeoutsTotal,
		obs.MetricSchedAllocateTotal + `{scheduler="enki-greedy"}`,
		obs.MetricSchedDefermentSlots,
		obs.MetricMechSettlementsTotal,
		obs.MetricMechDayPAR,
		obs.MetricObsRecorderEvents,
		obs.MetricObsBundleWrites,
		obs.MetricObsBundleLastUnix,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("fresh /metrics missing series %s", series)
		}
	}
}
