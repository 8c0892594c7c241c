package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/replica"
)

// enrollTimeout bounds one set-up's agent registration.
const enrollTimeout = 30 * time.Second

// quorumEnv is one neighbourhood center with its connected agents:
// the replica set of the workload, or the unreplicated center it is
// compared with.
type quorumEnv struct {
	rs     *netproto.ReplicaSet // nil for the unreplicated center
	c      *netproto.Center
	agents []*netproto.Agent
	cap    *capture
	sink   *ledgerSink
	closed bool
}

// startQuorum starts a replica set (or, with replicated false, a plain
// center) on loopback with the workload's ledger, connects one agent per
// household and waits until all are registered — through a
// quorum-committed registration each on the replica set.
func startQuorum(ctx context.Context, cfg runConfig, types []core.Type, replicated bool, ledgerDir string, epoch time.Time) (*quorumEnv, error) {
	sink, err := newLedgerSink(ledgerDir)
	if err != nil {
		return nil, err
	}
	env := &quorumEnv{cap: newCapture(epoch, len(types)), sink: sink}
	ts := traceSeed(cfg.seed)
	opts := append([]netproto.Option{netproto.WithTraceSeed(ts), netproto.WithLedger(netproto.NewJournal(sink))}, cfg.extra...)
	// Agents retry through a failover: the new leader listens on a new
	// address, which the set's dialer follows.
	retry := netproto.RetryPolicy{MaxAttempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond,
		Multiplier: 2, Jitter: 0.2, Seed: ts}
	agentOpts := []netproto.Option{netproto.WithRetryPolicy(retry)}
	var addr string
	if replicated {
		rs, err := netproto.StartReplicaSet(ctx, append(opts, netproto.WithReplicas(cfg.shape.replicas))...)
		if err != nil {
			env.close()
			return nil, err
		}
		env.rs = rs
		addr = rs.Addr()
		agentOpts = append(agentOpts, netproto.WithDialer(rs.Dialer()))
	} else {
		c, err := netproto.StartCenter("127.0.0.1:0", opts...)
		if err != nil {
			env.close()
			return nil, err
		}
		env.c = c
		addr = c.Addr()
	}
	for i, h := range households(types, env.cap) {
		a, err := netproto.Connect(ctx, addr, core.HouseholdID(i), h, agentOpts...)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("connect household %d: %w", i, err)
		}
		env.agents = append(env.agents, a)
	}
	wctx, cancel := context.WithTimeout(ctx, enrollTimeout)
	defer cancel()
	if replicated {
		err = env.rs.WaitForAgentsContext(wctx, len(types))
	} else {
		err = env.c.WaitForAgentsContext(wctx, len(types))
	}
	if err != nil {
		env.close()
		return nil, fmt.Errorf("enrollment: %w", err)
	}
	return env, nil
}

func (e *quorumEnv) runDay(ctx context.Context, day int) (*netproto.DayRecord, error) {
	if e.rs != nil {
		return e.rs.RunDayContext(ctx, day)
	}
	return e.c.RunDayContext(ctx, day)
}

func (e *quorumEnv) close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, a := range e.agents {
		a.Close()
	}
	if e.rs != nil {
		e.rs.Close()
	}
	if e.c != nil {
		e.c.Close()
	}
	e.sink.close()
}

// quorumRun is the state of one quorum workload run. A run is a series
// of replica-set lifetimes ("sessions") of shape.setDays days each: a
// fixed lifetime keeps the leader kill at a fixed log length and bounds
// the replica log, which is never compacted, so memory does not grow
// with the number of days a run manages to settle.
type quorumRun struct {
	cfg   runConfig
	res   *result
	types []core.Type
	epoch time.Time
	env   *quorumEnv
	// keepThrough is the last day whose ledger file is kept: the kill-
	// free comparison covers the days around the failover.
	keepThrough int
	ref         *ledgerSink // kill-free reference ledger, days 1..keepThrough

	// Untraced accumulators.
	setupS, samples, failoverMS []float64
	billed, ledgerBytes         int64
	wire                        uint64

	// Traced accumulators.
	tr                  *tracer
	vals                dayValues
	peer                *peerEcho
	repl, unrepl        []phaseTimes
	plainMS             []float64
	takeover, reconnect []float64
	logEntries          uint64
}

func (r *quorumRun) ledgerDir(name string) string {
	return filepath.Join(r.cfg.out, r.cfg.workload+"-"+name)
}

// settle runs one closed-loop day, times the RunDayContext call and
// checks the day. It returns the record, or nil when the day failed.
func (r *quorumRun) settle(ctx context.Context, day int) (*netproto.DayRecord, interval, error) {
	t0 := r.env.cap.now()
	rec, err := r.env.runDay(ctx, day)
	iv := interval{t0, r.env.cap.now()}
	n := int64(len(r.types))
	r.res.attempted += n
	if err != nil {
		r.res.failed += n
		r.res.note("day %d failed: %v", day, err)
		_, err := r.env.sink.endDay(day, false)
		return nil, iv, err
	}
	unbilled, err := checkDayRecord(r.cfg.workload, rec, len(r.types), settlement.mech.Xi)
	if err != nil {
		return nil, iv, err
	}
	r.res.failed += int64(unbilled)
	return rec, iv, nil
}

func (r *quorumRun) endDay(day int) (ledgerDay, error) {
	return r.env.sink.endDay(day, day <= r.keepThrough)
}

// runQuorum runs the quorum workload: replica-set sessions until the
// run's time is up (untraced), or alternating replica-set and
// unreplicated-center sessions (traced).
func runQuorum(ctx context.Context, cfg runConfig, res *result) error {
	types, err := drawTypes(cfg.seed, cfg.shape.households)
	if err != nil {
		return err
	}
	r := &quorumRun{cfg: cfg, res: res, types: types, epoch: time.Now(), keepThrough: cfg.shape.killDay + 4}
	defer func() {
		if r.env != nil {
			r.env.close()
		}
	}()
	if r.ref, err = r.killFree(ctx); err != nil {
		return err
	}
	if cfg.traced {
		r.tr, r.vals = &tracer{}, dayValues{}
		if r.peer, err = startPeerEcho(); err != nil {
			return err
		}
		defer r.peer.close()
	}
	c0 := readCounters()
	steal := startSteal()
	start := time.Now()
	for k := 0; ; k++ {
		if time.Since(start) > cfg.seconds+maxOvertime {
			return fmt.Errorf("only %d days in %d sessions in %v; day_ms.p90 needs %d", len(r.samples), k, time.Since(start).Round(time.Second), cfg.minDays)
		}
		replicated := !cfg.traced || k%2 == 0
		if cfg.traced {
			r.tr.session = fmt.Sprintf("session-%d-", k)
		}
		if err := r.session(ctx, replicated); err != nil {
			return err
		}
		enough := k+1 >= cfg.setups && len(r.samples) >= cfg.minDays
		if cfg.traced {
			enough = k >= 1
		}
		if time.Since(start) >= cfg.seconds && enough {
			break
		}
	}
	if cfg.traced {
		return r.tracedMetrics(c0, readCounters())
	}
	res.set("peak_rss_mb", peakRSSMB())
	steal.note(res)
	res.set("setup_s", median(r.setupS))
	res.set("failover_ms", median(r.failoverMS))
	res.note("%d replica-set sessions of %d days; setup_s is the median of their set-ups", len(r.setupS), cfg.shape.setDays)
	res.note("failover_ms is the median of %d failovers, each after %d committed log entries", len(r.failoverMS), r.logEntries)
	return dayMetrics(res, r.samples, r.billed, r.wire, r.ledgerBytes, true)
}

// session runs one topology lifetime: start, enrollment and the warm-up
// day (an untraced replica set's set-up time), then days 2..setDays,
// killing the leader before the kill day on a replica set. A traced run
// traces odd days. The session's kept ledger days must match the kill-
// free reference byte for byte and pass the audit.
func (r *quorumRun) session(ctx context.Context, replicated bool) error {
	runtime.GC()
	t0 := time.Now()
	env, err := startQuorum(ctx, r.cfg, r.types, replicated, r.ledgerDir("ledger"), r.epoch)
	if err != nil {
		return err
	}
	r.env = env
	rec, err := env.runDay(ctx, 1)
	if err != nil {
		return fmt.Errorf("warm-up day: %w", err)
	}
	if replicated {
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	if _, err := checkDayRecord(r.cfg.workload, rec, len(r.types), settlement.mech.Xi); err != nil {
		return err
	}
	if _, err := r.endDay(1); err != nil {
		return err
	}
	sent := sentBytes()
	for day := 2; day <= r.cfg.shape.setDays; day++ {
		failover := replicated && day == r.cfg.shape.killDay
		if failover {
			if r.logEntries, err = r.kill(); err != nil {
				return err
			}
		}
		if r.cfg.traced && day%2 == 1 {
			if err := r.tracedDay(ctx, day, failover); err != nil {
				return err
			}
			continue
		}
		b0 := sent.Value()
		rec, iv, err := r.settle(ctx, day)
		if err != nil {
			return err
		}
		if rec == nil {
			continue
		}
		ld, err := r.endDay(day)
		if err != nil {
			return err
		}
		ms := float64(iv.dur()) / 1e6
		switch {
		case failover:
			r.failoverMS = append(r.failoverMS, ms)
		case r.cfg.traced:
			if replicated {
				r.plainMS = append(r.plainMS, ms)
			}
		default:
			r.samples = append(r.samples, ms)
			r.wire += sent.Value() - b0
			r.billed += int64(len(rec.Payments))
			r.ledgerBytes += ld.bytes
		}
	}
	env.close()
	r.env = nil
	for day := 1; day <= r.keepThrough; day++ {
		got, err := env.sink.keptBytes(day)
		if err != nil {
			return &checkError{workload: r.cfg.workload, day: day, check: "failover-ledger-identity", detail: err.Error()}
		}
		want, err := r.ref.keptBytes(day)
		if err != nil {
			return &checkError{workload: r.cfg.workload, day: day, check: "failover-ledger-identity", detail: err.Error()}
		}
		if err := sameBytes(r.cfg.workload, day, "failover-ledger-identity", got, want); err != nil {
			return err
		}
	}
	return env.sink.auditKept(r.cfg.workload)
}

// kill kills the current leader before the kill day, returning the
// committed log length it leaves behind.
func (r *quorumRun) kill() (uint64, error) {
	rs := r.env.rs
	leader := rs.Leader()
	var entries uint64
	for _, st := range rs.ReplicaStatuses().Replicas {
		if st.ID == leader {
			entries = st.CommitIndex
		}
	}
	return entries, rs.Kill(leader)
}

// killFree settles days 1..keepThrough on an unreplicated center with
// the same households and seed and returns its ledger sink: the
// reference every replica-set session's ledger must match across its
// failover.
func (r *quorumRun) killFree(ctx context.Context) (*ledgerSink, error) {
	env, err := startQuorum(ctx, r.cfg, r.types, false, r.ledgerDir("ledger-ref"), r.epoch)
	if err != nil {
		return nil, err
	}
	defer env.close()
	for day := 1; day <= r.keepThrough; day++ {
		rec, err := env.runDay(ctx, day)
		if err != nil {
			return nil, &checkError{workload: r.cfg.workload, day: day, check: "failover-ledger-identity", detail: "kill-free settle: " + err.Error()}
		}
		if _, err := checkDayRecord(r.cfg.workload, rec, len(r.types), settlement.mech.Xi); err != nil {
			return nil, err
		}
		if _, err := env.sink.endDay(day, true); err != nil {
			return nil, err
		}
	}
	return env.sink, nil
}

// phaseTimes is one traced center day split at the household
// callbacks: day start → last Report → last Consume → day end.
type phaseTimes struct {
	day, request, allocation, settle float64
}

// tracedMetrics sets the traced run's metrics: per-day medians, the
// center's retry counters over the run, and replication's share of each
// phase as replica-set minus unreplicated-center medians.
func (r *quorumRun) tracedMetrics(c0, c1 counters) error {
	res := r.res
	r.vals.medians(res)
	res.set("center.retries", float64(c1.retries-c0.retries))
	res.set("center.resumes", float64(c1.resumes-c0.resumes))
	res.set("center.timeouts", float64(c1.timeouts-c0.timeouts))
	res.set("replica.failovers", float64(len(r.takeover)))
	res.set("replica.log_entries", float64(r.logEntries))
	res.set("replica.takeover_ms", median(r.takeover))
	res.set("replica.reconnect_ms", median(r.reconnect))
	pick := func(ps []phaseTimes, f func(phaseTimes) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	day := func(p phaseTimes) float64 { return p.day }
	request := func(p phaseTimes) float64 { return p.request }
	alloc := func(p phaseTimes) float64 { return p.allocation }
	settle := func(p phaseTimes) float64 { return p.settle }
	res.set("center.phase_ms.request", pick(r.repl, request))
	res.set("center.phase_ms.allocation", pick(r.repl, alloc))
	res.set("center.phase_ms.settle", pick(r.repl, settle))
	res.set("replica.overhead_ms.day", pick(r.repl, day)-pick(r.unrepl, day))
	res.set("replica.overhead_ms.allocation", pick(r.repl, alloc)-pick(r.unrepl, alloc))
	res.set("replica.overhead_ms.settle", pick(r.repl, settle)-pick(r.unrepl, settle))
	res.set("trace.overhead_ms", pick(r.repl, day)-median(r.plainMS))
	res.note("replica set: %d traced days (p50 %.4g ms), %d untraced (p50 %.4g ms), %d failovers; unreplicated center: %d traced days (p50 %.4g ms)",
		len(r.repl), pick(r.repl, day), len(r.plainMS), median(r.plainMS), len(r.takeover), len(r.unrepl), pick(r.unrepl, day))
	return writeSpans(r.cfg, res, r.tr)
}

// tracedDay settles one center day with the households recording and
// breaks it into phase spans. On a replica set it also replays the
// day's layers; on the failover day it records the takeover instead.
func (r *quorumRun) tracedDay(ctx context.Context, day int, failover bool) error {
	env := r.env
	var ms0, ms1 runtime.MemStats
	c0 := readCounters()
	runtime.ReadMemStats(&ms0)
	env.sink.setCapture(true)
	env.cap.start(day)
	rec, iv, err := r.settle(ctx, day)
	if err == nil && rec != nil {
		err = env.cap.waitBilled(len(rec.Payments), enrollTimeout)
	}
	env.cap.stop()
	runtime.ReadMemStats(&ms1)
	c1 := readCounters()
	env.sink.setCapture(false)
	if err != nil || rec == nil {
		return err
	}
	ld, err := r.endDay(day)
	if err != nil {
		return err
	}
	n := len(r.types)
	firstReport, lastReport := span(env.cap.report, 0, n)
	_, lastConsume := span(env.cap.consume, 0, n)
	t0, t1 := iv.start, iv.end
	p := phaseTimes{
		day:        float64(t1-t0) / 1e6,
		request:    float64(lastReport-t0) / 1e6,
		allocation: float64(lastConsume-lastReport) / 1e6,
		settle:     float64(t1-lastConsume) / 1e6,
	}
	trace := r.tr.dayTrace(day)
	layer := "center"
	if env.rs != nil {
		layer = "replica"
	}
	tr := r.tr
	dayID := tr.add(trace, 0, "day", layer, iv, 1)
	tr.add(trace, dayID, "phase.request", layer, interval{t0, lastReport}, n)
	tr.add(trace, dayID, "phase.allocation", layer, interval{lastReport, lastConsume}, n)
	tr.add(trace, dayID, "phase.settle", layer, interval{lastConsume, t1}, n)
	switch {
	case failover:
		r.takeover = append(r.takeover, float64(firstReport-t0)/1e6)
		r.reconnect = append(r.reconnect, float64(lastReport-t0)/1e6)
		return nil
	case env.rs == nil:
		r.unrepl = append(r.unrepl, p)
		return nil
	}
	r.repl = append(r.repl, p)

	vals := r.vals
	households := float64(len(rec.Payments))
	vals.addSched(c0, c1, households)
	vals.addWire(c0, c1)
	vals.addGC(&ms0, &ms1, households)
	vals.add("center.collect_ms.preference", ratio(c1.prefSum-c0.prefSum, float64(c1.prefCount-c0.prefCount)))
	vals.add("center.collect_ms.consumption", ratio(c1.consSum-c0.consSum, float64(c1.consCount-c0.consCount)))
	vals.add("center.msgs_per_day", float64(c1.msgs-c0.msgs))
	vals.add("journal.write_ms", float64(ld.writeNS)/1e6)
	vals.add("journal.bytes_per_day", float64(ld.bytes))

	rp, err := r.replay(rec, ld)
	if err != nil {
		return &checkError{workload: r.cfg.workload, day: day, check: "replay", detail: err.Error()}
	}
	vals.addReplay(rp, true)
	vals.add("replica.round_trip_us", ratio(float64(rp.roundTripNS)/1e3, float64(rp.roundTrips)))
	return nil
}

// replay runs every layer replay of one replica-set day after its day
// span.
func (r *quorumRun) replay(rec *netproto.DayRecord, ld ledgerDay) (*dayReplay, error) {
	day := rec.Day
	if len(ld.captured) != 1 {
		return nil, fmt.Errorf("%d ledger lines written for the day, want 1", len(ld.captured))
	}
	h := hoodDay{traceID: rec.TraceID, ledger: ld.captured[0]}
	for i, rep := range rec.Reports {
		id := int(rep.ID)
		h.reports = append(h.reports, rep)
		h.assigned = append(h.assigned, r.env.cap.assigned[id])
		h.consumed = append(h.consumed, r.env.cap.assigned[id]) // truthful: consumed what was allocated
		h.paid = append(h.paid, r.env.cap.paid[id])
		if rec.Payments[i] != r.env.cap.paid[id].Amount {
			return nil, fmt.Errorf("household %d: day record payment %.17g, received %.17g", id, rec.Payments[i], r.env.cap.paid[id].Amount)
		}
	}
	hoods := []hoodDay{h}
	rp := &dayReplay{}
	run := replaySpans(r.tr, day, r.env.cap.now)
	var chains []chain
	if err := run("replay.sched", "sched", 1, func() error { return rp.replaySched(hoods) }); err != nil {
		return nil, err
	}
	err := run("replay.mechanism.settle", "mechanism", 1, func() (err error) {
		chains, err = rp.replaySettleAll(hoods)
		return err
	})
	if err != nil {
		return nil, err
	}
	var entries []mechanism.LedgerEntry
	_ = run("replay.mechanism.ledger_entry", "mechanism", 1, func() error {
		entries = rp.replayLedger(day, hoods, chains)
		return nil
	})
	if err := run("replay.journal.append", "journal", 1, func() error { return rp.replayAppend(hoods, entries) }); err != nil {
		return nil, err
	}
	codec, _ := netproto.LookupCodec(r.cfg.shape.codec)
	phases := hoodMessages(h, day, nil)
	if err := run("replay.codec", "codec", len(h.reports)*len(phases), func() error { return rp.replayCodec(codec, 1, phases) }); err != nil {
		return nil, err
	}
	return rp, run("replay.replica.round_trip", "replica", 6, func() error { return rp.replayReplica(rec, h.ledger, r.peer) })
}

// replayReplica round-trips the day's three quorum-log entries — append
// then commit, as the leader does per follower — over the loopback peer
// link.
func (r *dayReplay) replayReplica(rec *netproto.DayRecord, ledger []byte, peer *peerEcho) error {
	entries, err := dayEntries(rec, ledger, 1)
	if err != nil {
		return err
	}
	for i := range entries {
		e := entries[i]
		for _, m := range []*replica.Message{
			{Kind: replica.MsgAppend, Term: 1, From: 0, Entry: &e},
			{Kind: replica.MsgCommit, Term: 1, From: 0, Commit: e.Index},
		} {
			d, err := peer.roundTrip(m)
			if err != nil {
				return fmt.Errorf("replica round trip: %w", err)
			}
			r.roundTripNS += d
			r.roundTrips++
		}
	}
	return nil
}
