package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/obs"
)

// clusterEnv is one started cluster topology with its households.
type clusterEnv struct {
	cl   *netproto.Cluster
	cap  *capture
	sink *ledgerSink // nil without a ledger
}

// startCluster starts the workload's cluster with the given worker
// count and enrolls every household. ledgerDir receives the audit
// ledger when the shape has one.
func startCluster(ctx context.Context, cfg runConfig, types []core.Type, workers int, ledgerDir string, epoch time.Time) (*clusterEnv, error) {
	sh := cfg.shape
	env := &clusterEnv{cap: newCapture(epoch, len(types))}
	opts := []netproto.Option{
		netproto.WithTraceSeed(traceSeed(cfg.seed)),
		netproto.WithShards(sh.shards),
		netproto.WithWorkers(workers),
		netproto.WithCodec(sh.codec),
		netproto.WithBatchSize(sh.batch),
		netproto.WithShardRecords(false),
	}
	if sh.ledger {
		sink, err := newLedgerSink(ledgerDir)
		if err != nil {
			return nil, err
		}
		env.sink = sink
		opts = append(opts, netproto.WithLedger(netproto.NewJournal(sink)))
	}
	if sh.reporting {
		opts = append(opts, netproto.WithMetricsReporting(true), netproto.WithSLO())
	}
	opts = append(opts, cfg.extra...)
	cl, err := netproto.StartCluster(ctx, opts...)
	if err != nil {
		env.close()
		return nil, err
	}
	env.cl = cl
	for i, h := range households(types, env.cap) {
		if err := cl.Join(core.HouseholdID(i), h); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

func (e *clusterEnv) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	if e.sink != nil {
		e.sink.close()
	}
}

// endDay closes a day's ledger file (keeping it when keep is set).
func (e *clusterEnv) endDay(day int, keep bool) (ledgerDay, error) {
	if e.sink == nil {
		return ledgerDay{}, nil
	}
	return e.sink.endDay(day, keep)
}

// clusterRun is the state of one cluster workload run.
type clusterRun struct {
	cfg   runConfig
	res   *result
	types []core.Type
	epoch time.Time
	env   *clusterEnv
	// kept holds the JSON of the sampled days' records for the
	// Workers:1 identity check.
	kept map[int][]byte
}

func (r *clusterRun) ledgerDir(name string) string {
	return filepath.Join(r.cfg.out, r.cfg.workload+"-"+name)
}

// setUp starts the cluster cfg.setups times — start, enrollment and the
// warm-up day, on which the cluster partitions its shards — keeps the
// last one and reports the median as setup_s.
func (r *clusterRun) setUp(ctx context.Context) error {
	var times []float64
	for i := 0; i < r.cfg.setups; i++ {
		if r.env != nil {
			r.env.close()
			r.env = nil
		}
		runtime.GC()
		t0 := time.Now()
		env, err := startCluster(ctx, r.cfg, r.types, 0, r.ledgerDir("ledger"), r.epoch)
		if err != nil {
			return err
		}
		r.env = env
		rec, err := env.cl.ClusterDay(ctx, 1)
		if err != nil {
			return fmt.Errorf("warm-up day: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if _, err := checkClusterDay(r.cfg.workload, rec, settlement.mech.Xi); err != nil {
			return err
		}
		if _, err := r.keep(rec); err != nil {
			return err
		}
	}
	r.res.set("setup_s", median(times))
	r.res.note("setup_s is the median of %d set-ups: %v", len(times), times)
	return nil
}

// keep ends a settled day: a sampled day's record and ledger file are
// kept for the checks. It returns what the day wrote to the ledger.
func (r *clusterRun) keep(rec *netproto.ClusterDayRecord) (ledgerDay, error) {
	sampled := rec.Day <= r.cfg.sampleDays
	if sampled {
		data, err := json.Marshal(rec)
		if err != nil {
			return ledgerDay{}, err
		}
		r.kept[rec.Day] = data
	}
	return r.env.endDay(rec.Day, sampled)
}

// runCluster runs the city or streets workload.
func runCluster(ctx context.Context, cfg runConfig, res *result) error {
	types, err := drawTypes(cfg.seed, cfg.shape.households)
	if err != nil {
		return err
	}
	r := &clusterRun{cfg: cfg, res: res, types: types, epoch: time.Now(), kept: make(map[int][]byte)}
	defer func() {
		if r.env != nil {
			r.env.close()
		}
	}()
	if cfg.traced {
		r.cfg.setups = 1
	}
	if err := r.setUp(ctx); err != nil {
		return err
	}
	if cfg.traced {
		err = r.traced(ctx)
	} else {
		err = r.untraced(ctx)
	}
	if err != nil {
		return err
	}
	r.env.close()
	sink := r.env.sink
	r.env = nil
	if err := r.checkReference(ctx, sink); err != nil {
		return err
	}
	if sink != nil {
		return sink.auditKept(cfg.workload)
	}
	return nil
}

// settle runs one closed-loop day, times the ClusterDay call and checks
// the day. It returns the record, or nil when the day failed as a whole.
func (r *clusterRun) settle(ctx context.Context, day int) (*netproto.ClusterDayRecord, interval, error) {
	t0 := r.env.cap.now()
	rec, err := r.env.cl.ClusterDay(ctx, day)
	iv := interval{t0, r.env.cap.now()}
	n := int64(r.cfg.shape.households)
	r.res.attempted += n
	if err != nil {
		r.res.failed += n
		r.res.note("day %d failed: %v", day, err)
		_, err := r.env.endDay(day, false)
		return nil, iv, err
	}
	unbilled, err := checkClusterDay(r.cfg.workload, rec, settlement.mech.Xi)
	if err != nil {
		return nil, iv, err
	}
	r.res.failed += int64(unbilled)
	return rec, iv, nil
}

// untraced measures the closed loop for the run's time, and at least
// cfg.minDays days so day_ms.p90 has ten days above it.
func (r *clusterRun) untraced(ctx context.Context) error {
	var samples []float64
	var billed int64
	var wire uint64
	var ledgerBytes int64
	sent := sentBytes()
	steal := startSteal()
	start := time.Now()
	for day := 2; time.Since(start) < r.cfg.seconds || len(samples) < r.cfg.minDays; day++ {
		if time.Since(start) > r.cfg.seconds+maxOvertime {
			return fmt.Errorf("only %d days in %v; day_ms.p90 needs %d", len(samples), time.Since(start).Round(time.Second), r.cfg.minDays)
		}
		b0 := sent.Value()
		rec, iv, err := r.settle(ctx, day)
		if err != nil {
			return err
		}
		if rec == nil {
			continue
		}
		wire += sent.Value() - b0
		samples = append(samples, float64(iv.dur())/1e6)
		billed += int64(rec.Settled)
		ld, err := r.keep(rec)
		if err != nil {
			return err
		}
		ledgerBytes += ld.bytes
	}
	r.res.set("peak_rss_mb", peakRSSMB())
	steal.note(r.res)
	return dayMetrics(r.res, samples, billed, wire, ledgerBytes, r.env.sink != nil)
}

// traced alternates traced and untraced days for the run's time, so
// both samples see the same heap and the difference of their medians
// is the tracing overhead.
func (r *clusterRun) traced(ctx context.Context) error {
	tr := &tracer{}
	vals := dayValues{}
	var tracedMS, plainMS []float64
	start := time.Now()
	for day := 2; time.Since(start) < r.cfg.seconds || len(tracedMS) == 0; day++ {
		if day%2 == 0 {
			rec, iv, err := r.settle(ctx, day)
			if err != nil {
				return err
			}
			if rec == nil {
				continue
			}
			plainMS = append(plainMS, float64(iv.dur())/1e6)
			if _, err := r.keep(rec); err != nil {
				return err
			}
			continue
		}
		ms, err := r.tracedDay(ctx, day, tr, vals)
		if err != nil {
			return err
		}
		if ms > 0 {
			tracedMS = append(tracedMS, ms)
		}
	}
	vals.medians(r.res)
	r.res.set("trace.overhead_ms", median(tracedMS)-median(plainMS))
	r.res.note("traced days %d, untraced days %d; day_ms.p50 traced %.4g, untraced %.4g",
		len(tracedMS), len(plainMS), median(tracedMS), median(plainMS))
	return writeSpans(r.cfg, r.res, tr)
}

// tracedDay settles one day with the households recording, breaks it
// into spans and replays its layers. It returns the day's wall time in
// ms (0 when the day failed as a whole).
func (r *clusterRun) tracedDay(ctx context.Context, day int, tr *tracer, vals dayValues) (float64, error) {
	env, sh := r.env, r.cfg.shape
	var ms0, ms1 runtime.MemStats
	c0 := readCounters()
	runtime.ReadMemStats(&ms0)
	if env.sink != nil {
		env.sink.setCapture(true)
	}
	env.cap.start(day)
	rec, iv, err := r.settle(ctx, day)
	env.cap.stop()
	if env.sink != nil {
		env.sink.setCapture(false)
	}
	t0, t1 := iv.start, iv.end
	runtime.ReadMemStats(&ms1)
	c1 := readCounters()
	if err != nil || rec == nil {
		return 0, err
	}
	statuses := env.cl.ShardStatuses()
	ld, err := r.keep(rec)
	if err != nil {
		return 0, err
	}
	dayMS := float64(t1-t0) / 1e6
	households := float64(rec.Settled)

	// Spans: the day, one per neighbourhood (first Report to last
	// Feedback of its households), and the serial merge after the last
	// household callback.
	trace := tr.dayTrace(day)
	dayID := tr.add(trace, 0, "day", "cluster", interval{t0, t1}, 1)
	// Neighbourhoods are contiguous blocks of the sorted household IDs
	// (ID = slot index), so the record's member counts give the blocks.
	hoods := make([]hoodDay, 0, sh.shards)
	var lastFeedback int64
	hi := 0
	for s := range rec.Shards {
		lo := hi
		hi += rec.Shards[s].Households
		first, _ := span(env.cap.report, lo, hi)
		_, last := span(env.cap.feedback, lo, hi)
		tr.add(trace, dayID, "neighbourhood", "cluster", interval{first, last}, hi-lo)
		if last > lastFeedback {
			lastFeedback = last
		}
		sd := rec.Shards[s]
		if sd.Err != "" || sd.Absent+sd.Substituted > 0 {
			continue // a degraded neighbourhood's inputs are not all visible to its households
		}
		h := hoodFromCapture(env.cap, r.types, s, sd.TraceID, lo, hi)
		if sh.ledger {
			k := len(hoods)
			if k >= len(ld.captured) {
				return 0, &checkError{workload: r.cfg.workload, day: day, check: "ledger-lines",
					detail: fmt.Sprintf("%d ledger lines for %d settled neighbourhoods", len(ld.captured), k+1)}
			}
			h.ledger = ld.captured[k]
		}
		hoods = append(hoods, h)
	}
	tr.add(trace, dayID, "merge", "cluster", interval{lastFeedback, t1}, 1)

	vals.addSched(c0, c1, households)
	vals.addWire(c0, c1)
	vals.addGC(&ms0, &ms1, households)
	shardSum := c1.shardSum - c0.shardSum
	vals.add("cluster.shard_ms.mean", ratio(shardSum, float64(c1.shardCount-c0.shardCount)))
	var maxShard float64
	for _, st := range statuses {
		if st.LastSettleMS > maxShard {
			maxShard = st.LastSettleMS
		}
	}
	vals.add("cluster.shard_ms.max", maxShard)
	vals.add("cluster.worker_busy_frac", ratio(shardSum, float64(runtime.GOMAXPROCS(0))*dayMS))
	vals.add("cluster.merge_ms", float64(t1-lastFeedback)/1e6)
	if sh.ledger {
		vals.add("journal.write_ms", float64(ld.writeNS)/1e6)
		vals.add("journal.bytes_per_day", float64(ld.bytes))
	}
	if sh.reporting {
		vals.add("obs.federation_reports", float64(c1.fedReports-c0.fedReports))
	}

	rp, err := r.replay(day, hoods, tr)
	if err != nil {
		return 0, &checkError{workload: r.cfg.workload, day: day, check: "replay", detail: err.Error()}
	}
	vals.addReplay(rp, sh.ledger)
	if sh.reporting {
		vals.add("obs.federation_ms", float64(rp.federationNS)/1e6)
		vals.add("obs.snapshot_bytes", ratio(float64(rp.snapshotBytes), float64(rp.reports)))
	}
	// The layers replayed inside a neighbourhood; the journal append
	// runs in the serial merge, outside them.
	explained := c1.schedSum - c0.schedSum + float64(rp.settleNS+rp.ledgerEntryNS+rp.encodeNS+rp.decodeNS+rp.federationNS)/1e6
	vals.add("cluster.unexplained_frac", 1-ratio(explained, shardSum))
	return dayMS, nil
}

// replay runs every layer replay of one cluster day, each in its own
// span after the day span.
func (r *clusterRun) replay(day int, hoods []hoodDay, tr *tracer) (*dayReplay, error) {
	sh := r.cfg.shape
	rp := &dayReplay{}
	run := replaySpans(tr, day, r.env.cap.now)
	var chains []chain
	if err := run("replay.sched", "sched", len(hoods), func() error { return rp.replaySched(hoods) }); err != nil {
		return nil, err
	}
	err := run("replay.mechanism.settle", "mechanism", len(hoods), func() (err error) {
		chains, err = rp.replaySettleAll(hoods)
		return err
	})
	if err != nil {
		return nil, err
	}
	if sh.ledger {
		var entries []mechanism.LedgerEntry
		_ = run("replay.mechanism.ledger_entry", "mechanism", len(hoods), func() error {
			entries = rp.replayLedger(day, hoods, chains)
			return nil
		})
		if err := run("replay.journal.append", "journal", len(entries), func() error { return rp.replayAppend(hoods, entries) }); err != nil {
			return nil, err
		}
	}
	var sources map[string]obs.Snapshot
	if sh.reporting {
		sources = r.env.cl.Federation().Snapshot().Sources
	}
	codec, _ := netproto.LookupCodec(sh.codec)
	phases := make([][]*netproto.Message, 0, 5*len(hoods))
	for _, h := range hoods {
		var report *obs.MetricsReport
		if snap, ok := sources[fmt.Sprintf("shard/%04d", h.shard)]; ok {
			report = &obs.MetricsReport{Source: fmt.Sprintf("shard/%04d", h.shard), Snapshot: snap}
		}
		phases = append(phases, hoodMessages(h, day, report)...)
	}
	if err := run("replay.codec", "codec", len(phases), func() error { return rp.replayCodec(codec, sh.batch, phases) }); err != nil {
		return nil, err
	}
	if sh.reporting {
		if err := run("replay.obs.federation", "obs", len(sources), func() error { return rp.replayFederation(day, codec, sources) }); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// checkReference settles the sampled days again on a WithWorkers(1)
// cluster of the same seed and requires byte-identical day records and
// ledger files: the enkiload -check contract.
func (r *clusterRun) checkReference(ctx context.Context, sink *ledgerSink) error {
	ref, err := startCluster(ctx, r.cfg, r.types, 1, r.ledgerDir("ledger-ref"), r.epoch)
	if err != nil {
		return err
	}
	defer ref.close()
	for day := 1; day <= r.cfg.sampleDays; day++ {
		want, ok := r.kept[day]
		if !ok {
			break
		}
		rec, err := ref.cl.ClusterDay(ctx, day)
		if err != nil {
			return &checkError{workload: r.cfg.workload, day: day, check: "workers-1-identity", detail: err.Error()}
		}
		got, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if err := sameBytes(r.cfg.workload, day, "workers-1-identity", got, want); err != nil {
			return err
		}
		if sink == nil {
			continue
		}
		if _, err := ref.endDay(day, true); err != nil {
			return err
		}
		refLedger, err := ref.sink.keptBytes(day)
		if err != nil {
			return err
		}
		runLedger, err := sink.keptBytes(day)
		if err != nil {
			return err
		}
		if err := sameBytes(r.cfg.workload, day, "workers-1-ledger", refLedger, runLedger); err != nil {
			return err
		}
	}
	return nil
}
