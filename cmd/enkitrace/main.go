// Command enkitrace analyzes the observability artifacts of a
// settlement run: the span trace (enkid -obs.trace-out, enkisim and
// enkiagent -trace-out) and the mechanism audit ledger (enkid
// -obs.ledger). It prints per-phase latency breakdowns, the critical
// path of each settlement day's trace, and an equation-level audit that
// recomputes the Eq. 6–7 chain from the ledger's own inputs and flags
// every mismatch.
//
// Usage:
//
//	enkitrace -trace day-spans.jsonl
//	enkitrace -trace day-spans.jsonl -ledger audit.jsonl
//	enkitrace -trace day-spans.jsonl -trace-id 96c9d7e01059c991
//
// The exit status is nonzero when the ledger audit finds a mismatch, so
// the tool doubles as a CI check on recorded settlements.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"enki/internal/mechanism"
	"enki/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "enkitrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("enkitrace", flag.ContinueOnError)
	var (
		tracePath  = fs.String("trace", "", "span-trace JSONL file (from -trace-out)")
		ledgerPath = fs.String("ledger", "", "mechanism audit-ledger JSONL file (from enkid -obs.ledger)")
		traceID    = fs.String("trace-id", "", "restrict the analysis to one trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" && *ledgerPath == "" {
		return fmt.Errorf("nothing to analyze: pass -trace and/or -ledger")
	}

	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		spans, err := obs.ReadSpans(f)
		f.Close()
		if err != nil {
			return err
		}
		if *traceID != "" {
			kept := spans[:0]
			for _, s := range spans {
				if s.TraceID == *traceID {
					kept = append(kept, s)
				}
			}
			spans = kept
			if len(spans) == 0 {
				return fmt.Errorf("trace %s not found in %s", *traceID, *tracePath)
			}
		}
		if len(spans) == 0 {
			return fmt.Errorf("no spans in %s", *tracePath)
		}
		printPhaseBreakdown(out, spans)
		printCriticalPaths(out, spans)
	}

	if *ledgerPath != "" {
		f, err := os.Open(*ledgerPath)
		if err != nil {
			return err
		}
		entries, err := mechanism.ReadLedger(f)
		f.Close()
		if err != nil {
			return err
		}
		if *traceID != "" {
			kept := entries[:0]
			for _, e := range entries {
				if e.TraceID == *traceID {
					kept = append(kept, e)
				}
			}
			entries = kept
		}
		if len(entries) == 0 {
			return fmt.Errorf("no ledger entries to audit in %s", *ledgerPath)
		}
		if mismatches := printAudit(out, entries); mismatches > 0 {
			return fmt.Errorf("ledger audit found %d mismatches", mismatches)
		}
	}
	return nil
}

// label returns the value of a key in a span's alternating label list.
func label(s obs.Span, key string) string {
	for i := 0; i+1 < len(s.Labels); i += 2 {
		if s.Labels[i] == key {
			return s.Labels[i+1]
		}
	}
	return ""
}

// phaseKey groups a span for the latency breakdown: its name plus the
// phase label when present (netproto.phase has one per protocol round).
func phaseKey(s obs.Span) string {
	if p := label(s, obs.LabelPhase); p != "" {
		return s.Name + " " + p
	}
	if sch := label(s, obs.LabelScheduler); sch != "" {
		return s.Name + " " + sch
	}
	return s.Name
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// printPhaseBreakdown aggregates span durations by (name, phase).
func printPhaseBreakdown(out io.Writer, spans []obs.Span) {
	type agg struct {
		count int
		total time.Duration
		max   time.Duration
	}
	byKey := map[string]*agg{}
	for _, s := range spans {
		a := byKey[phaseKey(s)]
		if a == nil {
			a = &agg{}
			byKey[phaseKey(s)] = a
		}
		a.count++
		d := s.Duration()
		a.total += d
		if d > a.max {
			a.max = d
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return byKey[keys[i]].total > byKey[keys[j]].total })

	fmt.Fprintf(out, "Per-phase latency (%d spans)\n", len(spans))
	fmt.Fprintf(out, "%-38s %6s %12s %12s %12s\n", "span phase", "count", "total ms", "mean ms", "max ms")
	for _, k := range keys {
		a := byKey[k]
		fmt.Fprintf(out, "%-38s %6d %12.3f %12.3f %12.3f\n",
			k, a.count, ms(a.total), ms(a.total)/float64(a.count), ms(a.max))
	}
	fmt.Fprintln(out)
}

// printCriticalPaths walks each trace from its root along the
// longest-duration child at every hop — the chain that bounded the
// day's wall clock — and prints the hops with their share of the root.
func printCriticalPaths(out io.Writer, spans []obs.Span) {
	children := map[string][]obs.Span{} // parent span ID -> children
	var roots []obs.Span
	for _, s := range spans {
		if s.TraceID == "" {
			continue // flat spans have no tree to walk
		}
		if s.ParentID == "" {
			roots = append(roots, s)
		} else {
			children[s.TraceID+"/"+s.ParentID] = append(children[s.TraceID+"/"+s.ParentID], s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].StartNS < roots[j].StartNS })

	for _, root := range roots {
		fmt.Fprintf(out, "Critical path of trace %s (%s, %.3f ms)\n",
			root.TraceID, describe(root), ms(root.Duration()))
		rootDur := root.Duration()
		depth := 0
		for cur := root; ; depth++ {
			share := 100.0
			if rootDur > 0 {
				share = 100 * float64(cur.Duration()) / float64(rootDur)
			}
			fmt.Fprintf(out, "  %s%-*s %10.3f ms %5.1f%%\n",
				strings.Repeat("  ", depth), 40-2*depth, describe(cur), ms(cur.Duration()), share)
			kids := children[cur.TraceID+"/"+cur.SpanID]
			if len(kids) == 0 {
				break
			}
			next := kids[0]
			for _, k := range kids[1:] {
				if k.Duration() > next.Duration() {
					next = k
				}
			}
			cur = next
		}
		fmt.Fprintln(out)
	}
}

// describe renders a span as name plus its labels.
func describe(s obs.Span) string {
	var b strings.Builder
	b.WriteString(s.Name)
	for i := 0; i+1 < len(s.Labels); i += 2 {
		fmt.Fprintf(&b, " %s=%s", s.Labels[i], s.Labels[i+1])
	}
	return b.String()
}

// printAudit recomputes every ledger entry's Eq. 4–7 chain and prints
// one line per day plus any mismatches; it returns the mismatch count.
// A day's center surplus is the entry's budgetResidual, Σp − κ(ω) =
// (ξ−1)·κ(ω); the other tools' "residual" is Σp − ξ·κ, zero on a sound
// day.
func printAudit(out io.Writer, entries []mechanism.LedgerEntry) int {
	fmt.Fprintf(out, "Ledger audit (%d entries)\n", len(entries))
	mismatches, degradedDays := 0, 0
	for _, e := range entries {
		bad := e.Audit()
		status := "OK"
		if len(bad) > 0 {
			status = fmt.Sprintf("%d MISMATCHES", len(bad))
			mismatches += len(bad)
		}
		substituted := 0
		for _, h := range e.Households {
			if h.Substituted {
				substituted++
			}
		}
		degraded := ""
		if substituted > 0 {
			degradedDays++
			degraded = fmt.Sprintf(", %d dark household(s) settled as defectors from journaled reports", substituted)
		}
		fmt.Fprintf(out, "day %d trace %s: %s (%d households, cost $%.2f, revenue $%.2f, center surplus $%.2f%s)\n",
			e.Day, e.TraceID, status, len(e.Households), e.Cost, e.Revenue, e.BudgetResidual, degraded)
		for _, msg := range bad {
			fmt.Fprintf(out, "  ! %s\n", msg)
		}
	}
	if degradedDays > 0 {
		fmt.Fprintf(out, "degraded: %d of %d days settled with substituted households\n", degradedDays, len(entries))
	}
	fmt.Fprintf(out, "audit: %d mismatches in %d entries\n", mismatches, len(entries))
	return mismatches
}
