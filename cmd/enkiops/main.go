// Command enkiops is the operator console for a running settlement
// service: it polls the /api/v1 status API that enkid -obs.http and
// enkiload -ops serve and renders a live day/shard view — current
// phase and deadline, households reported vs dark, per-shard health
// with substitutions and settle latency, the day's PAR and payment
// fairness spread, the audit verdict of each ledger-tail day
// (mechanism.LedgerEntry.Audit), and SLO burn rates.
//
//	enkiops -addr 127.0.0.1:8080                  # live watch, 2s cadence
//	enkiops -addr 127.0.0.1:8080 -once            # one snapshot, then exit
//	enkiops -addr 127.0.0.1:8080 -once -json      # machine-readable, for scripts
//	enkiops -addr 127.0.0.1:8080 -once -slo-exit  # CI gate: nonzero on any burning SLO
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"enki/internal/mechanism"
	"enki/internal/obs"
)

// errSLOUnhealthy marks a -slo-exit failure: an objective is burning
// (or the target has no SLO surface to gate on).
var errSLOUnhealthy = errors.New("slo unhealthy")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "enkiops:", err)
		os.Exit(1)
	}
}

// opsReport is one polled snapshot of the operator plane — the JSON
// document -json emits, assembled from the individual API endpoints.
type opsReport struct {
	Ready  bool              `json:"ready"`
	Day    obs.DayStatus     `json:"day"`
	Shards []obs.ShardStatus `json:"shards"`
	// Replicas is the quorum-set health of a replicated center (absent
	// when the target does not serve /api/v1/replicas).
	Replicas *obs.ReplicaSetStatus `json:"replicas,omitempty"`
	SLO      *obs.SLOReport        `json:"slo,omitempty"`
	Bundle   *obs.BundleStatus     `json:"bundle,omitempty"`
	Ledger   []mechanism.DayAudit  `json:"ledgerTail,omitempty"`
	// PAR and Spread mirror the mechanism gauges for the last settled
	// day: peak-to-average ratio and max−min payment.
	PAR    float64 `json:"par,omitempty"`
	Spread float64 `json:"paymentSpread,omitempty"`
}

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("enkiops", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "operator-plane address (host:port or full http:// URL)")
		interval = fs.Duration("interval", 2*time.Second, "poll cadence in watch mode")
		once     = fs.Bool("once", false, "poll once and exit")
		asJSON   = fs.Bool("json", false, "emit the snapshot as JSON instead of the table")
		tailN    = fs.Int("ledger", 5, fmt.Sprintf("audited ledger-tail entries to include (at most %d)", obs.MaxLedgerTail))
		watchFor = fs.Duration("for", 0, "stop watching after this long (0 = until interrupted)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
		sloExit  = fs.Bool("slo-exit", false, "exit nonzero if any sampled SLO objective is unhealthy (CI gate; requires the target to serve /api/v1/slo)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval %v must be positive", *interval)
	}
	if *tailN < 0 || *tailN > obs.MaxLedgerTail {
		return fmt.Errorf("-ledger %d outside [0, %d]", *tailN, obs.MaxLedgerTail)
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: *timeout}

	poll := func() error {
		rep, err := fetch(client, base, *tailN)
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			render(out, rep)
		}
		if *sloExit {
			if rep.SLO == nil {
				return fmt.Errorf("%w: target serves no /api/v1/slo", errSLOUnhealthy)
			}
			for _, o := range rep.SLO.Objectives {
				if !o.Healthy {
					return fmt.Errorf("%w: %s (%d/%d bad over budget %g)", errSLOUnhealthy, o.Name, o.Bad, o.Total, o.Budget)
				}
			}
		}
		return nil
	}
	if *once {
		return poll()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *watchFor > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *watchFor)
		defer cancel()
	}
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		if err := poll(); err != nil {
			// An SLO breach under -slo-exit ends the watch nonzero; a
			// transient scrape failure must not kill it — the service may
			// be mid-restart. Report the latter and keep polling.
			if errors.Is(err, errSLOUnhealthy) {
				return err
			}
			fmt.Fprintf(out, "enkiops: %v\n", err)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
	}
}

// fetch assembles one opsReport from the operator API. The day and
// shard endpoints are mandatory — their absence is a broken target —
// while SLO, ledger, and metrics are optional surfaces that degrade to
// empty sections when the service runs without them.
func fetch(client *http.Client, base string, tailN int) (*opsReport, error) {
	get := func(path string, v any, required bool) (bool, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return false, fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound && !required {
			return false, nil
		}
		if resp.StatusCode != http.StatusOK {
			return false, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return false, fmt.Errorf("decode %s: %w", path, err)
		}
		return true, nil
	}

	rep := &opsReport{}
	if resp, err := client.Get(base + "/readyz"); err == nil {
		rep.Ready = resp.StatusCode == http.StatusOK
		resp.Body.Close()
	}
	if _, err := get("/api/v1/day", &rep.Day, true); err != nil {
		return nil, err
	}
	if _, err := get("/api/v1/shards", &rep.Shards, true); err != nil {
		return nil, err
	}
	var replicas obs.ReplicaSetStatus
	if ok, err := get("/api/v1/replicas", &replicas, false); err != nil {
		return nil, err
	} else if ok {
		rep.Replicas = &replicas
	}
	var slo obs.SLOReport
	if ok, err := get("/api/v1/slo", &slo, false); err != nil {
		return nil, err
	} else if ok {
		rep.SLO = &slo
	}
	var bundle obs.BundleStatus
	if ok, err := get("/api/v1/debug/bundle", &bundle, false); err != nil {
		return nil, err
	} else if ok {
		rep.Bundle = &bundle
	}
	if tailN > 0 {
		var raw []json.RawMessage
		if ok, err := get(fmt.Sprintf("/api/v1/ledger/tail?n=%d", tailN), &raw, false); err != nil {
			return nil, err
		} else if ok {
			rep.Ledger = mechanism.AuditLines(raw)
		}
	}
	var snap obs.Snapshot
	if ok, err := get("/api/v1/metrics", &snap, false); err != nil {
		return nil, err
	} else if ok {
		rep.PAR = snap.Gauges[obs.MetricMechDayPAR]
		rep.Spread = snap.Gauges[obs.MetricMechPaymentSpread]
	}
	return rep, nil
}

// render writes the human table: day header, shard health table, SLO
// burn rates, and the audited ledger tail.
func render(w io.Writer, rep *opsReport) {
	ready := "ready"
	if !rep.Ready {
		ready = "starting"
	}
	d := rep.Day
	fmt.Fprintf(w, "day %d [%s] %s — members %d, reported %d, dark %d, days settled %d",
		d.Day, d.Phase, ready, d.Members, d.Reported, d.Dark, d.DaysSettled)
	if d.DeadlineRemainingMS > 0 {
		fmt.Fprintf(w, ", deadline in %.0fms", d.DeadlineRemainingMS)
	}
	fmt.Fprintln(w)
	if d.DaysSettled > 0 {
		fmt.Fprintf(w, "last day: cost $%.2f revenue $%.2f residual %+.3g peak %.1f kW",
			d.LastCost, d.LastRevenue, d.LastResidual, d.LastPeak)
		if rep.PAR > 0 {
			fmt.Fprintf(w, " PAR %.3f spread $%.2f", rep.PAR, rep.Spread)
		}
		fmt.Fprintln(w)
	}

	if len(rep.Shards) > 0 {
		fmt.Fprintf(w, "%-6s %-8s %5s %6s %7s %6s %6s %10s %10s %10s %9s\n",
			"shard", "health", "day", "hh", "settled", "absent", "subst", "cost", "revenue", "residual", "settle ms")
		for _, s := range rep.Shards {
			health := "ok"
			if !s.Healthy {
				health = "FAILED"
			} else if s.Absent+s.Substituted > 0 {
				health = "degraded"
			}
			fmt.Fprintf(w, "%-6d %-8s %5d %6d %7d %6d %6d %10.2f %10.2f %+10.2g %9.2f\n",
				s.Shard, health, s.LastDay, s.Households, s.Settled, s.Absent, s.Substituted,
				s.Cost, s.Revenue, s.Residual, s.LastSettleMS)
			if s.Err != "" {
				fmt.Fprintf(w, "       err: %s\n", s.Err)
			}
		}
	}

	if rep.Replicas != nil {
		r := rep.Replicas
		quorum := "quorum"
		if !r.Quorum {
			quorum = "NO QUORUM"
		}
		fmt.Fprintf(w, "replicas: leader %d term %d %s, %d failovers\n", r.Leader, r.Term, quorum, r.Failovers)
		for _, rs := range r.Replicas {
			fmt.Fprintf(w, "  %-2d %-9s term %-4d commit %-6d lag %-4d %s\n",
				rs.ID, rs.Role, rs.Term, rs.CommitIndex, rs.CommitLag, rs.Addr)
		}
	}

	if rep.SLO != nil {
		fmt.Fprintf(w, "slo:\n")
		for _, o := range rep.SLO.Objectives {
			health := "ok"
			if !o.Healthy {
				health = "BURNING"
			}
			fmt.Fprintf(w, "  %-28s %-8s budget %-7g bad %d/%d", o.Name, health, o.Budget, o.Bad, o.Total)
			for _, b := range o.Burn {
				fmt.Fprintf(w, "  %s×%.2f", b.Window, b.Rate)
			}
			fmt.Fprintln(w)
		}
	}

	if rep.Bundle != nil {
		b := rep.Bundle
		if b.Writes == 0 {
			fmt.Fprintf(w, "bundles: none captured (%d suppressed, %d errors)\n", b.Suppressed, b.Errors)
		} else {
			fmt.Fprintf(w, "bundles: %d written, %d suppressed, %d errors — last %s (%s, %s)\n",
				b.Writes, b.Suppressed, b.Errors, b.LastPath, b.LastReason,
				time.Unix(0, b.LastUnixNS).UTC().Format(time.RFC3339))
		}
	}

	if len(rep.Ledger) > 0 {
		fmt.Fprintf(w, "ledger tail:\n")
		for _, l := range rep.Ledger {
			verdict := "audit ok"
			if len(l.Findings) > 0 {
				verdict = fmt.Sprintf("audit %d FINDINGS", len(l.Findings))
			}
			fmt.Fprintf(w, "  day %-5d cost $%-10.2f revenue $%-10.2f %-17s %s\n",
				l.Day, l.Cost, l.Revenue, verdict, l.TraceID)
			for _, f := range l.Findings {
				fmt.Fprintf(w, "    ! %s\n", f)
			}
		}
	}
}
