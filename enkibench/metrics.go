package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef is one metric the benchmark prints.
type metricDef struct {
	name string
	unit string
	// workloads lists where the metric measures something; elsewhere it
	// prints as n/a in the table and as 0 in a traced run's JSON line.
	workloads []string
	// gated marks the end-to-end metrics of the final JSON line: those
	// every workload measures, that are never 0 and whose run-to-run
	// spread stays within the largest bound the benchmark may set.
	gated bool
}

var (
	all      = []string{"city", "streets", "quorum"}
	clusters = []string{"city", "streets"}
	ledgered = []string{"streets", "quorum"}
	quorum   = []string{"quorum"}
	streets  = []string{"streets"}
)

// endToEnd are the untraced run's metrics, in print order.
var endToEnd = []metricDef{
	{"day_ms.p50", "ms", all, true},
	{"day_ms.p90", "ms", all, false},
	{"households_per_s", "1/s", all, false},
	{"setup_s", "s", all, true},
	{"peak_rss_mb", "MB", all, true},
	{"wire_bytes_per_household", "B", all, true},
	{"ledger_bytes_per_household", "B", ledgered, false},
	{"failover_ms", "ms", quorum, false},
	{"settle_fail_frac", "ratio", all, false},
}

// perLayer are the traced run's metrics, grouped by layer.
var perLayer = []metricDef{
	{"sched.busy_ms", "ms", all, false},
	{"sched.us_per_household", "us", all, false},
	{"sched.allocs_per_household", "count", all, false},
	{"sched.deferred_households", "count", all, false},

	{"mechanism.settle_ms", "ms", all, false},
	{"mechanism.ledger_entry_ms", "ms", ledgered, false},
	{"mechanism.allocs_per_household", "count", all, false},

	{"codec.encode_ms", "ms", all, false},
	{"codec.decode_ms", "ms", all, false},
	{"codec.decode_allocs_per_msg", "count", all, false},
	{"codec.frames_per_day", "count", all, false},
	{"codec.msgs_per_frame", "count", all, false},
	{"codec.bytes_per_msg", "B", all, false},

	{"cluster.shard_ms.mean", "ms", clusters, false},
	{"cluster.shard_ms.max", "ms", clusters, false},
	{"cluster.worker_busy_frac", "ratio", clusters, false},
	{"cluster.merge_ms", "ms", clusters, false},
	{"cluster.unexplained_frac", "ratio", clusters, false},

	{"journal.write_ms", "ms", ledgered, false},
	{"journal.append_ms", "ms", ledgered, false},
	{"journal.bytes_per_day", "B", ledgered, false},

	{"obs.federation_ms", "ms", streets, false},
	{"obs.snapshot_bytes", "B", streets, false},
	{"obs.federation_reports", "count", streets, false},

	{"center.phase_ms.request", "ms", quorum, false},
	{"center.phase_ms.allocation", "ms", quorum, false},
	{"center.phase_ms.settle", "ms", quorum, false},
	{"center.collect_ms.preference", "ms", quorum, false},
	{"center.collect_ms.consumption", "ms", quorum, false},
	{"center.msgs_per_day", "count", quorum, false},
	{"center.retries", "count", quorum, false},
	{"center.resumes", "count", quorum, false},
	{"center.timeouts", "count", quorum, false},

	{"replica.overhead_ms.day", "ms", quorum, false},
	{"replica.overhead_ms.allocation", "ms", quorum, false},
	{"replica.overhead_ms.settle", "ms", quorum, false},
	{"replica.round_trip_us", "us", quorum, false},
	{"replica.log_entries", "count", quorum, false},
	{"replica.takeover_ms", "ms", quorum, false},
	{"replica.reconnect_ms", "ms", quorum, false},
	{"replica.failovers", "count", quorum, false},

	{"gc.cycles_per_day", "count", all, false},
	{"gc.pause_ms_per_day", "ms", all, false},
	{"gc.alloc_bytes_per_household", "B", all, false},
	{"gc.mallocs_per_household", "count", all, false},

	{"trace.overhead_ms", "ms", all, false},
}

func (d metricDef) appliesTo(workload string) bool {
	for _, w := range d.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// catalogue returns the metric list of a run mode.
func catalogue(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// result is one run's outcome: the measured values by metric name plus
// the failure count the final JSON line carries.
type result struct {
	workload  string
	traced    bool
	attempted int64 // households × days attempted
	failed    int64 // households not billed on those days
	values    map[string]float64
	notes     []string // extra table lines (sample counts, tail percentile)
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, values: make(map[string]float64)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// jsonLine builds the final output line: the gated end-to-end metrics
// of an untraced run, or every per-layer metric of a traced run (0 for
// a layer the workload does not exercise).
func (r *result) jsonLine(correct bool) resultLine {
	line := resultLine{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range catalogue(r.traced) {
		if !r.traced && !d.gated {
			continue
		}
		line.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return line
}

// write prints the metric table, one metric per line with its unit,
// then the JSON result as the last line.
func (r *result) write(w io.Writer, correct bool) error {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s)\n", r.workload, mode)
	for _, d := range catalogue(r.traced) {
		if !d.appliesTo(r.workload) {
			fmt.Fprintf(w, "  %-34s n/a\n", d.name)
			continue
		}
		fmt.Fprintf(w, "  %-34s %.6g %s\n", d.name, r.values[d.name], d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	data, err := json.Marshal(r.jsonLine(correct))
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// shapeNote renders a workload's fixed shape for the table.
func shapeNote(s shape) string {
	parts := []string{
		fmt.Sprintf("households=%d", s.households),
		fmt.Sprintf("neighbourhoods=%d", s.shards),
		"codec=" + s.codec,
	}
	if s.batch > 0 {
		parts = append(parts, fmt.Sprintf("batch=%d", s.batch))
	}
	parts = append(parts, fmt.Sprintf("ledger=%v", s.ledger), fmt.Sprintf("reporting=%v", s.reporting))
	if s.replicas > 0 {
		parts = append(parts, fmt.Sprintf("replicas=%d", s.replicas), fmt.Sprintf("kill_day=%d", s.killDay),
			fmt.Sprintf("days_per_set=%d", s.setDays))
	}
	if s.procs > 0 {
		parts = append(parts, fmt.Sprintf("gomaxprocs=%d", s.procs))
	}
	return strings.Join(parts, " ")
}
