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
// sorts lexically, grouping the obs.*, shard.*, wire.* namespaces), and
// every namespaced flag must have its pre-namespace flat alias.
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
		"-obs.journal", "-obs.ledger", "-obs.http", "-obs.trace-out", "-obs.trace-seed", "-obs.trace-limit",
		"-obs.bundle-dir", "-obs.bundle-cpu",
	}
	for _, name := range namespaced {
		if !strings.Contains(first, name+" ") && !strings.Contains(first, name+"\n") {
			t.Errorf("-help missing %s", name)
		}
	}
	aliases := []string{
		"alias for -shard.agents", "alias for -shard.days", "alias for -shard.wait",
		"alias for -shard.sigma", "alias for -shard.rating", "alias for -shard.xi",
		"alias for -wire.addr", "alias for -wire.phase-deadline", "alias for -wire.fault-plan",
		"alias for -obs.journal", "alias for -obs.ledger", "alias for -obs.http",
		"alias for -obs.trace-out", "alias for -obs.trace-seed", "alias for -obs.trace-limit",
		"alias for -obs.bundle-dir", "alias for -obs.bundle-cpu",
	}
	for _, a := range aliases {
		if !strings.Contains(first, a) {
			t.Errorf("-help missing %q", a)
		}
	}
}

// TestFlagAliasesShareValues: setting a flat alias must be exactly
// setting its canonical namespaced flag — one Value, two names.
func TestFlagAliasesShareValues(t *testing.T) {
	fs, f := newFlagSet()
	if err := fs.Parse([]string{"-agents", "7", "-wire.addr", "10.0.0.1:9", "-xi", "1.5"}); err != nil {
		t.Fatal(err)
	}
	if f.agents != 7 {
		t.Errorf("alias -agents did not set shard.agents: %d", f.agents)
	}
	if f.addr != "10.0.0.1:9" {
		t.Errorf("-wire.addr = %q", f.addr)
	}
	if f.xi != 1.5 {
		t.Errorf("alias -xi did not set shard.xi: %g", f.xi)
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
