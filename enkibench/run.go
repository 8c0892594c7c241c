package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"enki/internal/netproto"
)

// shape is a workload's fixed topology. It never changes between runs
// or commits: every later change is judged against these shapes.
type shape struct {
	households int
	shards     int // neighbourhoods
	codec      string
	batch      int // messages per batch frame on cluster links; 0 on TCP
	ledger     bool
	reporting  bool // metrics federation and the default SLOs
	replicas   int  // 0 = in-process cluster
	killDay    int  // the leader is killed before this day
	setDays    int  // days each replica set lives (warm-up day included)
	procs      int  // GOMAXPROCS for the run; 0 keeps the number of CPUs
}

// shapes are the benchmark's workloads. See README.md for why each was
// chosen.
var shapes = map[string]shape{
	"city":    {households: 100_000, shards: 128, codec: netproto.CodecBinary, batch: 64},
	"streets": {households: 30_000, shards: 1_000, codec: netproto.CodecBinary, batch: 64, ledger: true, reporting: true},
	"quorum":  {households: 30, shards: 1, codec: netproto.CodecJSON, ledger: true, replicas: 3, killDay: 21, setDays: 250, procs: 1},
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	shape    shape
	seed     uint64
	seconds  time.Duration
	traced   bool
	out      string // directory for ledgers and spans
	// minDays keeps an untraced run measuring past its time until
	// day_ms.p90 has ten days above it.
	minDays int
	// setups is how many times an untraced run at least starts the
	// topology; setup_s is the median set-up time.
	setups int
	// sampleDays are the first days whose outputs are compared with a
	// reference settle and audited.
	sampleDays int
	// extra options for the topology (tests inject faults with them).
	extra []netproto.Option
}

// maxOvertime bounds how long an untraced run keeps measuring past its
// time to reach minDays.
const maxOvertime = 90 * time.Second

func defaultConfig(workload string, seed uint64, seconds time.Duration, traced bool, out string) (runConfig, error) {
	sh, ok := shapes[workload]
	if !ok {
		return runConfig{}, fmt.Errorf("unknown workload %q (have city, streets, quorum)", workload)
	}
	return runConfig{
		workload:   workload,
		shape:      sh,
		seed:       seed,
		seconds:    seconds,
		traced:     traced,
		out:        out,
		minDays:    10 * minTailAbove,
		setups:     5,
		sampleDays: 3,
	}, nil
}

// runWorkload runs one workload and returns its result. A failed output
// check is returned as a *checkError.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult(cfg.workload, cfg.traced)
	res.note("shape: %s", shapeNote(cfg.shape))
	if cfg.shape.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.shape.procs))
	}
	var err error
	if cfg.shape.replicas > 0 {
		err = runQuorum(ctx, cfg, res)
	} else {
		err = runCluster(ctx, cfg, res)
	}
	if !cfg.traced {
		res.set("settle_fail_frac", ratio(float64(res.failed), float64(res.attempted)))
	}
	return res, err
}

// dayMetrics sets the untraced day metrics from the timed days.
func dayMetrics(res *result, samples []float64, billed int64, wire uint64, ledgerBytes int64, ledger bool) error {
	if len(samples) == 0 {
		return fmt.Errorf("no day settled in the timed region")
	}
	res.set("day_ms.p50", median(samples))
	tail, err := p90(samples)
	if err != nil {
		return fmt.Errorf("day_ms.p90: %w", err)
	}
	res.set("day_ms.p90", tail)
	if pct, v, ok := tailPercentile(samples); ok {
		res.note("day_ms: %d timed days; highest percentile with %d days above it: p%d = %.4g ms", len(samples), minTailAbove, pct, v)
	}
	var total float64
	for _, ms := range samples {
		total += ms
	}
	res.set("households_per_s", ratio(float64(billed), total/1000))
	res.set("wire_bytes_per_household", ratio(float64(wire), float64(billed)))
	if ledger {
		res.set("ledger_bytes_per_household", ratio(float64(ledgerBytes), float64(billed)))
	}
	return nil
}

// replaySpans returns a runner that times one replay step as a root span
// of the day's trace, after the day span has ended.
func replaySpans(tr *tracer, day int, now func() int64) func(name, layer string, calls int, f func() error) error {
	return func(name, layer string, calls int, f func() error) error {
		t0 := now()
		err := f()
		tr.add(tr.dayTrace(day), 0, name, layer, interval{t0, now()}, calls)
		return err
	}
}

// writeSpans writes the run's spans as JSONL under the output directory.
func writeSpans(cfg runConfig, res *result, tr *tracer) error {
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	res.note("%d spans written to %s", len(tr.spans), path)
	return nil
}
