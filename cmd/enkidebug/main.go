// Command enkidebug analyzes a debug bundle offline and prints a triage
// report: the implicated day/shard/trace, phase latency against the SLO
// threshold, the audit of every bundled ledger entry
// (mechanism.LedgerEntry.Audit: Eq. 4–7 per household and Theorem 1),
// the retry/fault timeline, and a ranked probable-cause summary.
//
// Exit codes are CI-suitable: 0 the bundle analyzed clean (every ledger
// entry audits clean), 1 usage or a corrupt/unreadable bundle, 2 an
// integrity violation (the audit found a bill or total the mechanism's
// own equations do not give).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"enki/internal/mechanism"
	"enki/internal/obs"
)

// errAudit marks a ledger entry that fails its audit (exit 2).
var errAudit = errors.New("enkidebug: ledger audit failed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errAudit) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// shardFinding is one implicated shard's triage row.
type shardFinding struct {
	Shard       int    `json:"shard"`
	State       string `json:"state"` // "failed" or "degraded"
	Err         string `json:"err,omitempty"`
	TraceID     string `json:"traceId,omitempty"`
	Absent      int    `json:"absent,omitempty"`
	Substituted int    `json:"substituted,omitempty"`
	Faults      int    `json:"faults"` // injected-fault events on its link
	FaultMix    string `json:"faultMix,omitempty"`
}

// phaseFinding is one latency family's quantile row.
type phaseFinding struct {
	Name        string  `json:"name"`
	Count       uint64  `json:"count"`
	P50MS       float64 `json:"p50Ms"`
	P99MS       float64 `json:"p99Ms"`
	ThresholdMS float64 `json:"thresholdMs,omitempty"` // SLO bound when one applies
	Breached    bool    `json:"breached,omitempty"`
}

// cause is one ranked probable-cause line.
type cause struct {
	Score int    `json:"score"`
	Text  string `json:"text"`
}

// triageReport is the whole analysis (the -json output shape).
type triageReport struct {
	Bundle     string               `json:"bundle"`
	Reason     string               `json:"reason"`
	CapturedAt string               `json:"capturedAt"`
	Build      string               `json:"build"`
	Day        int                  `json:"day"`
	Traces     []string             `json:"traces,omitempty"`
	Shards     []shardFinding       `json:"shards,omitempty"`
	ShardTotal int                  `json:"shardTotal"`
	Phases     []phaseFinding       `json:"phases,omitempty"`
	SLO        []string             `json:"sloUnhealthy,omitempty"`
	Audit      []mechanism.DayAudit `json:"audit"`
	Events     int                  `json:"events"`
	Timeline   []string             `json:"timeline,omitempty"`
	Causes     []cause              `json:"causes"`
	Profiles   map[string]int       `json:"profiles,omitempty"`
	Notes      []string             `json:"notes,omitempty"`
	// Missing names what the bundle does not hold; the report claims
	// nothing about it, and healthy only what it held.
	Missing []string          `json:"missing,omitempty"`
	Config  map[string]string `json:"-"`
	healthy []string
}

// partStatus is the status.json part's name in triageReport.Missing.
const partStatus = "shard status"

func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("enkidebug", flag.ContinueOnError)
	fs.SetOutput(out)
	jsonOut := fs.Bool("json", false, "emit the triage report as JSON")
	tailN := fs.Int("n", 12, "timeline events to print (0 for all)")
	fs.Usage = func() {
		fmt.Fprintln(out, "usage: enkidebug [-json] [-n events] bundle.tar.gz")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return errors.New("enkidebug: exactly one bundle path required")
	}
	path := fs.Arg(0)
	b, err := obs.ReadBundle(path)
	if err != nil {
		return fmt.Errorf("enkidebug: %w", err)
	}

	rep := analyze(path, b)
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		render(out, rep, *tailN)
	}
	if n := auditFindings(rep.Audit); n > 0 {
		return fmt.Errorf("%w: %d findings in %d ledger entries", errAudit, n, len(rep.Audit))
	}
	return nil
}

func analyze(path string, b *obs.Bundle) *triageReport {
	rep := &triageReport{
		Bundle:     path,
		Reason:     b.Manifest.Reason,
		CapturedAt: time.Unix(0, b.Manifest.CapturedUnixNS).UTC().Format(time.RFC3339),
		Build:      fmt.Sprintf("%s %s/%s", b.Manifest.GoVersion, b.Manifest.GOOS, b.Manifest.GOARCH),
		Day:        b.Manifest.ImplicatedDay,
		Traces:     b.Manifest.ImplicatedTraces,
		Events:     len(b.Events),
		Profiles:   b.Profiles,
		Notes:      b.Manifest.Notes,
		Config:     b.Manifest.Config,
	}
	if b.Day != nil {
		rep.Day = b.Day.Day
	}
	for _, part := range []struct {
		held          bool
		name, healthy string
	}{
		{b.Day != nil, partStatus, "shards healthy"},
		{b.SLO != nil, "SLO report", "SLOs met"},
		{len(b.Ledger) > 0, "ledger entries", "ledger audits clean"},
	} {
		if part.held {
			rep.healthy = append(rep.healthy, part.healthy)
		} else {
			rep.Missing = append(rep.Missing, part.name)
		}
	}

	// Per-shard fault accounting from the event ring.
	faultsByShard := map[int]map[string]int{}
	var retries, resumes, darks int
	for _, e := range b.Events {
		switch e.Kind {
		case obs.EventFault:
			if faultsByShard[e.Shard] == nil {
				faultsByShard[e.Shard] = map[string]int{}
			}
			faultsByShard[e.Shard][e.Action]++
		case obs.EventRetry:
			retries++
		case obs.EventResume:
			resumes++
		case obs.EventDark:
			darks++
		}
	}

	rep.ShardTotal = len(b.Shards)
	for _, sh := range b.Shards {
		state := ""
		switch {
		case !sh.Healthy || sh.Err != "":
			state = "failed"
		case sh.Absent > 0 || sh.Substituted > 0:
			state = "degraded"
		default:
			continue
		}
		n, mix := faultSummary(faultsByShard[sh.Shard])
		rep.Shards = append(rep.Shards, shardFinding{
			Shard:       sh.Shard,
			State:       state,
			Err:         sh.Err,
			TraceID:     sh.TraceID,
			Absent:      sh.Absent,
			Substituted: sh.Substituted,
			Faults:      n,
			FaultMix:    mix,
		})
	}

	// Phase-latency breakdown vs the SLO threshold. The day-settle
	// family carries the latency objective's bound when the bundle's
	// SLO spec names it.
	thresholds := map[string]float64{}
	if b.SLO != nil {
		for _, o := range b.SLO.Spec {
			if o.Kind == obs.ObjectiveLatency && o.Series != "" {
				thresholds[o.Series] = o.ThresholdMS
			}
		}
		for _, st := range b.SLO.Objectives {
			if !st.Healthy {
				rep.SLO = append(rep.SLO, fmt.Sprintf("%s (bad %d / total %d)", st.Name, st.Bad, st.Total))
			}
		}
	}
	if b.Metrics != nil {
		keys := make([]string, 0, len(b.Metrics.Histograms))
		for k := range b.Metrics.Histograms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			base := obs.BaseName(k)
			switch base {
			case "enki_netproto_phase_latency_ms", "enki_netproto_day_settle_latency_ms", "enki_cluster_shard_settle_latency_ms":
			default:
				continue
			}
			h := b.Metrics.Histograms[k]
			if h.Count == 0 {
				continue
			}
			f := phaseFinding{
				Name:  strings.TrimPrefix(k, "enki_"),
				Count: h.Count,
				P50MS: quantile(h, 0.50),
				P99MS: quantile(h, 0.99),
			}
			if t, ok := thresholds[base]; ok {
				f.ThresholdMS = t
				f.Breached = f.P99MS > t
			}
			rep.Phases = append(rep.Phases, f)
		}
	}

	rep.Audit = mechanism.AuditLines(b.Ledger)
	rep.Timeline = timeline(b.Events)
	rep.Causes = rankCauses(rep, retries, resumes, darks)
	return rep
}

// timeline renders the event ring as human-readable lines, relative to
// the first event's capture time.
func timeline(events []obs.Event) []string {
	if len(events) == 0 {
		return nil
	}
	t0 := events[0].TimeNS
	out := make([]string, len(events))
	for i, e := range events {
		var sb strings.Builder
		fmt.Fprintf(&sb, "+%8.3fs %-12s", float64(e.TimeNS-t0)/1e9, e.Kind)
		if e.Day != 0 || e.Kind == obs.EventShardDay || e.Kind == obs.EventDay || e.Kind == obs.EventPhase {
			fmt.Fprintf(&sb, " day=%d", e.Day)
		}
		if e.Shard >= 0 {
			fmt.Fprintf(&sb, " shard=%d", e.Shard)
		}
		if e.Phase != "" {
			fmt.Fprintf(&sb, " phase=%s", e.Phase)
		}
		if e.Action != "" {
			fmt.Fprintf(&sb, " action=%s", e.Action)
		}
		if e.Codec != "" {
			fmt.Fprintf(&sb, " codec=%s", e.Codec)
		}
		if e.N != 0 {
			fmt.Fprintf(&sb, " n=%d", e.N)
		}
		if e.Bytes != 0 {
			fmt.Fprintf(&sb, " bytes=%d", e.Bytes)
		}
		if e.Val != 0 {
			fmt.Fprintf(&sb, " val=%.3f", e.Val)
		}
		if e.TraceID != "" {
			fmt.Fprintf(&sb, " trace=%s", e.TraceID)
		}
		if e.Err != "" {
			fmt.Fprintf(&sb, " err=%q", e.Err)
		}
		out[i] = sb.String()
	}
	return out
}

// rankCauses orders the evidence into a probable-cause list, strongest
// first: a ledger audit finding outranks shard failures, which outrank
// fault-linked degradation, SLO burn, and link instability.
func rankCauses(rep *triageReport, retries, resumes, darks int) []cause {
	var causes []cause
	for _, d := range rep.Audit {
		if len(d.Findings) > 0 {
			causes = append(causes, cause{100, fmt.Sprintf(
				"ledger audit failed: %d findings, first on day %d (trace %s): %s — the ledger records a day the mechanism's equations do not give",
				auditFindings(rep.Audit), d.Day, d.TraceID, d.Findings[0])})
			break
		}
	}
	for _, sh := range rep.Shards {
		switch sh.State {
		case "failed":
			txt := fmt.Sprintf("shard %d failed: %s", sh.Shard, sh.Err)
			if sh.Faults > 0 {
				txt += fmt.Sprintf(" — %d injected faults (%s) on its link", sh.Faults, sh.FaultMix)
			}
			causes = append(causes, cause{90, txt})
		case "degraded":
			txt := fmt.Sprintf("shard %d degraded (absent %d, substituted %d)", sh.Shard, sh.Absent, sh.Substituted)
			if sh.Faults > 0 {
				txt += fmt.Sprintf(" — %d injected faults (%s) on its link explain the loss", sh.Faults, sh.FaultMix)
			}
			causes = append(causes, cause{80, txt})
		}
	}
	for _, name := range rep.SLO {
		causes = append(causes, cause{60, "SLO objective burning: " + name})
	}
	for _, ph := range rep.Phases {
		if ph.Breached {
			causes = append(causes, cause{50, fmt.Sprintf(
				"%s p99 %.1fms exceeds the %gms SLO threshold", ph.Name, ph.P99MS, ph.ThresholdMS)})
		}
	}
	if retries+resumes > 0 {
		causes = append(causes, cause{40, fmt.Sprintf(
			"link instability: %d reconnect attempts, %d session resumes", retries, resumes)})
	}
	if darks > 0 {
		causes = append(causes, cause{30, fmt.Sprintf("%d connections went dark mid-day", darks)})
	}
	if len(causes) == 0 {
		txt := "no anomalies"
		if len(rep.healthy) > 0 {
			txt += ": " + strings.Join(rep.healthy, ", ")
		}
		if len(rep.Missing) > 0 {
			txt += "; the bundle holds no " + strings.Join(rep.Missing, ", ")
		}
		causes = append(causes, cause{0, txt})
	}
	sort.SliceStable(causes, func(i, j int) bool { return causes[i].Score > causes[j].Score })
	return causes
}

// faultSummary collapses a shard's injected-fault counts into a total
// and a stable "drop×3 dup×1"-style mix string.
func faultSummary(byAction map[string]int) (int, string) {
	if len(byAction) == 0 {
		return 0, ""
	}
	actions := make([]string, 0, len(byAction))
	total := 0
	for a, n := range byAction {
		actions = append(actions, a)
		total += n
	}
	sort.Strings(actions)
	parts := make([]string, len(actions))
	for i, a := range actions {
		parts[i] = fmt.Sprintf("%s×%d", a, byAction[a])
	}
	return total, strings.Join(parts, " ")
}

// quantile returns the smallest bucket bound covering fraction q of the
// observations (the +Inf bucket reports the largest finite bound).
func quantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[len(h.Bounds)-1]
}

// auditFindings counts the findings over every audited ledger day.
func auditFindings(days []mechanism.DayAudit) int {
	n := 0
	for _, d := range days {
		n += len(d.Findings)
	}
	return n
}

func render(out io.Writer, rep *triageReport, tailN int) {
	fmt.Fprintf(out, "bundle   %s\n", rep.Bundle)
	fmt.Fprintf(out, "reason   %s   captured %s   %s\n", rep.Reason, rep.CapturedAt, rep.Build)
	noStatus := slices.Contains(rep.Missing, partStatus)
	if noStatus {
		fmt.Fprintln(out, "day      unknown: the bundle holds no shard status (status.json)")
	} else {
		fmt.Fprintf(out, "day      %d\n", rep.Day)
	}
	if len(rep.Traces) > 0 {
		fmt.Fprintf(out, "traces   %s\n", strings.Join(rep.Traces, " "))
	}

	if !noStatus {
		fmt.Fprintf(out, "\nimplicated shards (%d of %d):\n", len(rep.Shards), rep.ShardTotal)
		if len(rep.Shards) == 0 {
			fmt.Fprintln(out, "  none — every shard settled healthy")
		}
	}
	for _, sh := range rep.Shards {
		fmt.Fprintf(out, "  shard %d %s", sh.Shard, strings.ToUpper(sh.State))
		if sh.Err != "" {
			fmt.Fprintf(out, " err=%q", sh.Err)
		}
		if sh.Absent+sh.Substituted > 0 {
			fmt.Fprintf(out, " absent=%d substituted=%d", sh.Absent, sh.Substituted)
		}
		if sh.Faults > 0 {
			fmt.Fprintf(out, " faults=%d (%s)", sh.Faults, sh.FaultMix)
		}
		if sh.TraceID != "" {
			fmt.Fprintf(out, " trace=%s", sh.TraceID)
		}
		fmt.Fprintln(out)
	}

	if len(rep.Phases) > 0 {
		fmt.Fprintln(out, "\nphase latency:")
		for _, ph := range rep.Phases {
			fmt.Fprintf(out, "  %-52s n=%-6d p50 %8.2fms  p99 %8.2fms", ph.Name, ph.Count, ph.P50MS, ph.P99MS)
			if ph.ThresholdMS > 0 {
				verdict := "within SLO"
				if ph.Breached {
					verdict = "BREACHED"
				}
				fmt.Fprintf(out, "  [threshold %gms: %s]", ph.ThresholdMS, verdict)
			}
			fmt.Fprintln(out)
		}
	}
	if len(rep.SLO) > 0 {
		fmt.Fprintln(out, "\nunhealthy SLO objectives:")
		for _, s := range rep.SLO {
			fmt.Fprintf(out, "  %s\n", s)
		}
	}

	fmt.Fprintln(out, "\nledger audit (Eq. 4–7 per household and Theorem 1, re-derived from each entry):")
	if len(rep.Audit) == 0 {
		fmt.Fprintln(out, "  no ledger entries in bundle")
	} else {
		verdict := "OK"
		if n := auditFindings(rep.Audit); n > 0 {
			verdict = fmt.Sprintf("%d FINDINGS", n)
		}
		fmt.Fprintf(out, "  %d entries: %s\n", len(rep.Audit), verdict)
		for _, d := range rep.Audit {
			for _, f := range d.Findings {
				fmt.Fprintf(out, "  ! day %d trace %s: %s\n", d.Day, d.TraceID, f)
			}
		}
	}

	if n := len(rep.Timeline); n > 0 {
		show := rep.Timeline
		if tailN > 0 && n > tailN {
			show = show[n-tailN:]
		}
		fmt.Fprintf(out, "\ntimeline (last %d of %d events):\n", len(show), rep.Events)
		for _, line := range show {
			fmt.Fprintf(out, "  %s\n", line)
		}
	}

	fmt.Fprintln(out, "\nprobable causes:")
	for i, c := range rep.Causes {
		fmt.Fprintf(out, "  %d. [%3d] %s\n", i+1, c.Score, c.Text)
	}
	if len(rep.Profiles) > 0 {
		names := make([]string, 0, len(rep.Profiles))
		for k := range rep.Profiles {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintln(out, "\nprofiles:")
		for _, k := range names {
			fmt.Fprintf(out, "  %s (%d bytes)\n", k, rep.Profiles[k])
		}
	}
	for _, note := range rep.Notes {
		fmt.Fprintf(out, "note: %s\n", note)
	}
}
