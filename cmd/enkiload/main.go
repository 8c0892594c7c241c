// Command enkiload is the scale harness for the sharded settlement
// service: it enrolls a large population of truthful households
// (Section VI usage profiles), partitions them into neighborhoods with
// net.StartCluster, and drives full preference→payment days through the
// batched wire framing, reporting throughput, wire-level counters, and
// the day machine's Theorem 1 verdict for every day.
//
//	enkiload -households 1000000 -shards 1024 -codec binary
//	enkiload -households 100000 -shards 128 -days 3 -check
//	enkiload -households 500 -replicas 3 -days 3 -kill-leader 2
//	enkiload -households 300 -replicas 3 -days 3 -kill-leader 2 -ops 127.0.0.1:0 -ops-check
//
// With -replicas N (odd, > 1) the harness settles through a
// quorum-replicated wire center instead of the shard fabric, one agent
// connection per household; -kill-leader D kills the current leader
// before day D so the run crosses a mid-sequence failover, and -ops
// serves the set's operator plane across it.
//
// With -check the harness re-settles every day on a single worker and
// fails unless the merged day report is byte-identical — the
// Workers:1 ≡ Workers:N determinism contract at population scale.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/obs"
	"enki/internal/pricing"
	"enki/internal/profile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "enkiload:", err)
		os.Exit(1)
	}
}

type loadFlags struct {
	households int
	shards     int
	workers    int
	days       int
	codec      string
	batch      int
	seed       uint64
	sigma      float64
	rating     float64
	xi         float64
	records    bool
	check      bool
	out        string
	ops        string
	opsCheck   bool
	fedOut     string

	faultPlan    string
	faultShard   int
	bundleDir    string
	bundleOnFail bool

	replicas   int
	killLeader int
}

func newFlagSet() (*flag.FlagSet, *loadFlags) {
	f := &loadFlags{}
	fs := flag.NewFlagSet("enkiload", flag.ContinueOnError)
	fs.IntVar(&f.households, "households", 1_000_000, "population size")
	fs.IntVar(&f.shards, "shards", 1024, "neighborhood count")
	fs.IntVar(&f.workers, "workers", 0, "settlement worker pool (0 = all CPUs)")
	fs.IntVar(&f.days, "days", 1, "days to settle")
	fs.StringVar(&f.codec, "codec", netproto.CodecBinary, "wire codec for shard links")
	fs.IntVar(&f.batch, "batch", netproto.DefaultBatchSize, "messages per batch frame")
	fs.Uint64Var(&f.seed, "seed", 1, "profile and trace seed")
	fs.Float64Var(&f.sigma, "sigma", pricing.DefaultSigma, "quadratic tariff σ")
	fs.Float64Var(&f.rating, "rating", core.DefaultPowerRating, "household power rating in kW")
	fs.Float64Var(&f.xi, "xi", mechanism.DefaultXi, "payment scale ξ (≥ 1)")
	fs.BoolVar(&f.records, "records", false, "keep full per-shard DayRecords (costs memory at scale)")
	fs.BoolVar(&f.check, "check", false, "re-settle each day on one worker and require byte-identical output")
	fs.StringVar(&f.out, "out", "", "write an obs metrics snapshot (JSON) on exit")
	fs.StringVar(&f.ops, "ops", "", "serve the operator plane on this address (e.g. 127.0.0.1:0; enables the default SLOs, and metrics federation in cluster mode)")
	fs.BoolVar(&f.opsCheck, "ops-check", false, "after the run, scrape /api/v1/day and /api/v1/slo and fail on non-2xx, an unsettled day, or an unhealthy objective")
	fs.StringVar(&f.fedOut, "fed-out", "", "write the federated metrics snapshot (JSON) on exit (requires -ops)")
	fs.StringVar(&f.faultPlan, "fault-plan", "", "inject a deterministic fault plan on one shard link (e.g. 'drop@30' or 'seed=7,msgs=200,drop=0.02')")
	fs.IntVar(&f.faultShard, "fault-shard", 0, "shard whose link -fault-plan sabotages")
	fs.StringVar(&f.bundleDir, "bundle-dir", "", "enable the flight recorder and write breach-triggered debug bundles here (enables the default SLOs)")
	fs.BoolVar(&f.bundleOnFail, "bundle-on-fail", false, "capture a debug bundle when the run fails (requires -bundle-dir)")
	fs.IntVar(&f.replicas, "replicas", 1, "settle through a replicated wire center with this many replicas (odd; 1 = sharded cluster mode)")
	fs.IntVar(&f.killLeader, "kill-leader", 0, "kill the leader replica before settling this day (requires -replicas > 1)")
	return fs, f
}

// clusterOnlyFlags are meaningless against a replicated wire center:
// replicas settle one neighborhood over TCP, not an in-process shard
// fabric, so the shard, fault, federation-export and bundle machinery
// has nothing to attach to. The operator plane (-ops, -ops-check) works
// in both modes.
var clusterOnlyFlags = map[string]bool{
	"shards": true, "workers": true, "codec": true, "batch": true,
	"records": true, "check": true, "fault-plan": true, "fault-shard": true,
	"fed-out": true, "bundle-dir": true, "bundle-on-fail": true,
}

func run(argv []string, out io.Writer) error {
	fs, f := newFlagSet()
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if f.households < 1 {
		return fmt.Errorf("-households %d must be positive", f.households)
	}
	if f.replicas == 1 && (f.shards < 1 || f.shards > f.households) {
		return fmt.Errorf("-shards %d must be in [1, households]", f.shards)
	}
	if f.days < 1 {
		return fmt.Errorf("-days %d must be positive", f.days)
	}
	if f.replicas > 1 {
		var bad []string
		fs.Visit(func(fl *flag.Flag) {
			if clusterOnlyFlags[fl.Name] {
				bad = append(bad, "-"+fl.Name)
			}
		})
		if len(bad) > 0 {
			return fmt.Errorf("%s: cluster-only, not valid with -replicas %d", strings.Join(bad, ", "), f.replicas)
		}
		if f.killLeader < 0 || f.killLeader > f.days {
			return fmt.Errorf("-kill-leader %d outside [0, %d]", f.killLeader, f.days)
		}
		if f.households > 10_000 {
			return fmt.Errorf("-households %d: replicated mode drives one wire agent per household; use ≤ 10000", f.households)
		}
	} else if f.killLeader != 0 {
		return fmt.Errorf("-kill-leader requires -replicas > 1")
	}
	if _, ok := netproto.LookupCodec(f.codec); !ok {
		return fmt.Errorf("unknown -codec %q (have: %v)", f.codec, netproto.CodecNames())
	}
	if (f.opsCheck || f.fedOut != "") && f.ops == "" {
		return fmt.Errorf("-ops-check and -fed-out require -ops")
	}
	if f.bundleOnFail && f.bundleDir == "" {
		return fmt.Errorf("-bundle-on-fail requires -bundle-dir")
	}
	if f.faultPlan != "" {
		if _, err := netproto.ParseFaultPlan(f.faultPlan); err != nil {
			return err
		}
		if f.faultShard < 0 || f.faultShard >= f.shards {
			return fmt.Errorf("-fault-shard %d outside [0, %d)", f.faultShard, f.shards)
		}
	}
	pricer, err := pricing.NewQuadratic(f.sigma)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if f.replicas > 1 {
		return runReplicated(ctx, f, pricer, out)
	}
	start := time.Now()
	cluster, err := startCluster(ctx, f, pricer, f.workers)
	if err != nil {
		return err
	}
	defer cluster.Close()
	fmt.Fprintf(out, "enrolled %d households in %d shards (codec=%s batch=%d) in %v\n",
		cluster.Members(), cluster.Shards(), f.codec, f.batch, time.Since(start).Round(time.Millisecond))

	var opsURL string
	var op *obs.Operator
	if f.ops != "" {
		op = cluster.Operator()
		srv, err := obs.ServeOperator(f.ops, op)
		if err != nil {
			return err
		}
		defer srv.Close()
		op.SetReady(true) // enrollment is complete by here
		opsURL = "http://" + srv.Addr()
		fmt.Fprintf(out, "operator plane: %s (api /api/v1/{day,shards,ledger/tail,slo,federation})\n", opsURL)
	}

	var trig *obs.Trigger
	if f.bundleDir != "" {
		if op == nil {
			op = cluster.Operator()
		}
		obs.DefaultRecorder().Enable()
		trig, err = obs.NewTrigger(obs.TriggerConfig{
			Dir: f.bundleDir,
			Config: map[string]string{
				"households": fmt.Sprint(f.households),
				"shards":     fmt.Sprint(f.shards),
				"codec":      f.codec,
				"batch":      fmt.Sprint(f.batch),
				"fault-plan": f.faultPlan,
			},
		}, obs.BundleSources{Operator: op, Recorder: obs.DefaultRecorder(), Tracer: obs.DefaultTracer()})
		if err != nil {
			return err
		}
		op.Debug = trig
		fmt.Fprintf(out, "flight recorder on; debug bundles → %s\n", f.bundleDir)
	}

	var check *netproto.Cluster
	if f.check {
		if check, err = startCluster(ctx, f, pricer, 1); err != nil {
			return err
		}
		defer check.Close()
	}

	days := func() error {
		for day := 1; day <= f.days; day++ {
			dayStart := time.Now()
			violations := budgetViolations()
			rec, err := cluster.ClusterDay(ctx, day)
			if err != nil {
				return fmt.Errorf("day %d: %w", day, err)
			}
			elapsed := time.Since(dayStart)
			rate := float64(rec.Settled) / elapsed.Seconds()
			residual := rec.Revenue - f.xi*rec.Cost
			fmt.Fprintf(out, "day %d: settled %d/%d (failed shards %d) cost %.2f revenue %.2f residual %+.3g peak %.1f kW in %v (%.0f households/s)\n",
				day, rec.Settled, rec.Households, rec.Failed, rec.Cost, rec.Revenue, residual,
				rec.Peak, elapsed.Round(time.Millisecond), rate)
			if trig != nil {
				// Breach-triggered capture: an unhealthy objective or a
				// degraded/failed shard drops a bundle (rate-limited, so a
				// persistent breach yields one bundle, not one per day).
				if path, err := trig.CheckSLO(op.SampleSLO(time.Now())); err != nil {
					return err
				} else if path != "" {
					fmt.Fprintf(out, "day %d: SLO breach captured → %s\n", day, path)
				}
				if path, err := trig.CheckShards(cluster.ShardStatuses()); err != nil {
					return err
				} else if path != "" {
					fmt.Fprintf(out, "day %d: shard breach captured → %s\n", day, path)
				}
			}
			if err := budgetHeld(day, violations); err != nil {
				return err
			}
			if check != nil {
				ref, err := check.ClusterDay(ctx, day)
				if err != nil {
					return fmt.Errorf("day %d (workers=1): %w", day, err)
				}
				got, _ := json.Marshal(rec)
				want, _ := json.Marshal(ref)
				if string(got) != string(want) {
					return fmt.Errorf("day %d: workers=%d output diverges from workers=1", day, f.workers)
				}
				fmt.Fprintf(out, "day %d: determinism check passed (%d bytes identical)\n", day, len(got))
			}
		}
		return nil
	}
	if err := days(); err != nil {
		if trig != nil && f.bundleOnFail {
			if path, ferr := trig.Fire("run-failure"); ferr == nil && path != "" {
				fmt.Fprintf(out, "failure bundle: %s\n", path)
			}
		}
		return err
	}

	snap := obs.Default().Snapshot()
	frames := snap.CounterSum(obs.MetricNetFramesTotal)
	wire := snap.CounterSum(obs.MetricNetCodecBytesTotal)
	msgs := snap.CounterSum(obs.MetricNetMessagesTotal)
	fmt.Fprintf(out, "wire: %d messages in %d frames, %d codec bytes (%.1f msgs/frame, %.1f B/msg)\n",
		msgs, frames, wire, ratio(msgs, frames), ratio(wire, msgs))

	if trig != nil {
		st := trig.Status()
		fmt.Fprintf(out, "bundles: %d written, %d suppressed, %d errors", st.Writes, st.Suppressed, st.Errors)
		if st.LastPath != "" {
			fmt.Fprintf(out, " (last: %s, reason %s)", st.LastPath, st.LastReason)
		}
		fmt.Fprintln(out)
	}

	if f.opsCheck {
		if err := checkOps(opsURL, f.days, out); err != nil {
			return err
		}
	}
	if f.fedOut != "" {
		w, err := os.Create(f.fedOut)
		if err != nil {
			return err
		}
		defer w.Close()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cluster.Federation().Snapshot()); err != nil {
			return err
		}
	}
	if f.out != "" {
		w, err := os.Create(f.out)
		if err != nil {
			return err
		}
		defer w.Close()
		return snap.WriteJSON(w)
	}
	return nil
}

// runReplicated drives the same truthful population through a
// quorum-replicated wire center instead of the shard fabric: one agent
// connection per household, with an optional scripted leader kill so
// the failover path gets exercised at load, not just in unit tests.
func runReplicated(ctx context.Context, f *loadFlags, pricer pricing.Pricer, out io.Writer) error {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(f.seed))
	if err != nil {
		return err
	}
	start := time.Now()
	opts := []netproto.Option{
		netproto.WithReplicas(f.replicas),
		netproto.WithPricer(pricer),
		netproto.WithMechanism(mechanism.Config{K: mechanism.DefaultK, Xi: f.xi}),
		netproto.WithRating(f.rating),
		netproto.WithTraceSeed(f.seed),
	}
	if f.ops != "" {
		// The SLO engine only reads the registry; reporting stays off, so
		// the agents' wire stream is a plain run's.
		opts = append(opts, netproto.WithSLO())
	}
	rs, err := netproto.StartReplicaSet(ctx, opts...)
	if err != nil {
		return err
	}
	defer rs.Close()

	// Failover hands agents a new leader address mid-day, so every
	// agent needs the set-aware dialer and enough retry headroom to
	// outlast an election.
	retry := netproto.RetryPolicy{
		MaxAttempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond,
		Multiplier: 2, Jitter: 0.2, Seed: f.seed,
	}
	agents := make([]*netproto.Agent, 0, f.households)
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	for i := 0; i < f.households; i++ {
		p := gen.Draw()
		a, err := netproto.Connect(ctx, rs.Addr(), core.HouseholdID(i), &netproto.Truthful{Type: p.TypeWide()},
			netproto.WithDialer(rs.Dialer()), netproto.WithRetryPolicy(retry))
		if err != nil {
			return fmt.Errorf("connect household %d: %w", i, err)
		}
		agents = append(agents, a)
	}
	if err := rs.WaitForAgentsContext(ctx, f.households); err != nil {
		return err
	}
	fmt.Fprintf(out, "enrolled %d wire households against a %d-replica center (leader %d) in %v\n",
		f.households, f.replicas, rs.Leader(), time.Since(start).Round(time.Millisecond))

	var opsURL string
	if f.ops != "" {
		op := rs.Operator()
		srv, err := obs.ServeOperator(f.ops, op)
		if err != nil {
			return err
		}
		defer srv.Close()
		op.SetReady(true) // enrollment is complete by here
		opsURL = "http://" + srv.Addr()
		fmt.Fprintf(out, "operator plane: %s (api /api/v1/{day,shards,ledger/tail,slo,replicas})\n", opsURL)
	}

	for day := 1; day <= f.days; day++ {
		if day == f.killLeader {
			victim := rs.Leader()
			if err := rs.Kill(victim); err != nil {
				return err
			}
			fmt.Fprintf(out, "day %d: killed leader %d before settlement\n", day, victim)
		}
		dayStart := time.Now()
		violations := budgetViolations()
		rec, err := rs.RunDayContext(ctx, day)
		if err != nil {
			return fmt.Errorf("day %d: %w", day, err)
		}
		elapsed := time.Since(dayStart)
		var revenue float64
		for _, p := range rec.Payments {
			revenue += p
		}
		residual := revenue - f.xi*rec.Cost
		fmt.Fprintf(out, "day %d: settled %d households cost %.2f revenue %.2f residual %+.3g peak %.1f kW in %v (leader %d term %d)\n",
			day, len(rec.Reports), rec.Cost, revenue, residual, rec.Peak,
			elapsed.Round(time.Millisecond), rs.Leader(), rs.Term())
		if err := budgetHeld(day, violations); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "replica set: %d failovers, leader %d, term %d\n", rs.Failovers(), rs.Leader(), rs.Term())
	if f.opsCheck {
		if err := checkOps(opsURL, f.days, out); err != nil {
			return err
		}
	}

	if f.out != "" {
		w, err := os.Create(f.out)
		if err != nil {
			return err
		}
		defer w.Close()
		return obs.Default().Snapshot().WriteJSON(w)
	}
	return nil
}

// checkOps is the harness's operator-plane gate: the day API must agree
// that every requested day settled, and every SLO objective must be
// within its burn budget. CI runs this after the 100k smoke so a
// regression in the observability path — not just the settlement path —
// fails the build.
func checkOps(opsURL string, days int, out io.Writer) error {
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string, v any) error {
		resp, err := client.Get(opsURL + path)
		if err != nil {
			return fmt.Errorf("ops-check: GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("ops-check: GET %s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
	var day obs.DayStatus
	if err := get("/api/v1/day", &day); err != nil {
		return err
	}
	if day.Phase != "settled" || day.Day != days || day.DaysSettled != uint64(days) {
		return fmt.Errorf("ops-check: day status %+v, want day %d settled", day, days)
	}
	var slo obs.SLOReport
	if err := get("/api/v1/slo", &slo); err != nil {
		return err
	}
	if len(slo.Objectives) == 0 {
		return fmt.Errorf("ops-check: /api/v1/slo returned no objectives")
	}
	for _, o := range slo.Objectives {
		if !o.Healthy {
			return fmt.Errorf("ops-check: SLO %s violated: %d/%d bad over budget %g", o.Name, o.Bad, o.Total, o.Budget)
		}
	}
	fmt.Fprintf(out, "ops-check: day %d settled, %d SLO objectives healthy\n", day.Day, len(slo.Objectives))
	return nil
}

// startCluster builds a cluster and enrolls the truthful population.
// Profiles are drawn once per call from the same seed, so two clusters
// built from identical flags hold identical member sets.
func startCluster(ctx context.Context, f *loadFlags, pricer pricing.Pricer, workers int) (*netproto.Cluster, error) {
	gen, err := profile.NewGenerator(profile.DefaultConfig(), dist.New(f.seed))
	if err != nil {
		return nil, err
	}
	opts := []netproto.Option{
		netproto.WithPricer(pricer),
		netproto.WithMechanism(mechanism.Config{K: mechanism.DefaultK, Xi: f.xi}),
		netproto.WithRating(f.rating),
		netproto.WithTraceSeed(f.seed),
		netproto.WithShards(f.shards),
		netproto.WithWorkers(workers),
		netproto.WithCodec(f.codec),
		netproto.WithBatchSize(f.batch),
		netproto.WithShardRecords(f.records),
	}
	if f.faultPlan != "" {
		plan, err := netproto.ParseFaultPlan(f.faultPlan)
		if err != nil {
			return nil, err
		}
		opts = append(opts, netproto.WithShardFaultPlan(f.faultShard, plan))
	}
	if f.ops != "" {
		// The operator plane wants the federated per-shard view and the
		// burn-rate objectives; both stay off otherwise so a plain run's
		// wire stream and registry are unchanged.
		opts = append(opts, netproto.WithMetricsReporting(true), netproto.WithSLO())
	} else if f.bundleDir != "" {
		// Bundle triggers need the SLO engine but not the reporting
		// stream (reporting adds frames, which would shift the message
		// indices a -fault-plan names).
		opts = append(opts, netproto.WithSLO())
	}
	if f.bundleDir != "" {
		// A discard-backed journal keeps the in-memory ledger tail that
		// bundles export, so enkidebug can recompute the Theorem 1
		// residual offline without the harness persisting anything.
		opts = append(opts, netproto.WithLedger(netproto.NewJournal(io.Discard)))
	}
	cluster, err := netproto.StartCluster(ctx, opts...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < f.households; i++ {
		p := gen.Draw()
		if err := cluster.Join(core.HouseholdID(i), &netproto.Truthful{Type: p.TypeWide()}); err != nil {
			cluster.Close()
			return nil, err
		}
	}
	return cluster, nil
}

// budgetViolations reads the day machine's Theorem 1 verdict: the count
// of neighbourhood days that settled with Σp off ξ·κ(ω) beyond float
// tolerance (mechanism.RecordSettlementMetrics). It looks the counter
// up on every read, so a registry Reset cannot detach it.
func budgetViolations() uint64 {
	return obs.Default().Counter(obs.MetricMechBudgetViolations).Value()
}

// budgetHeld fails day if budgetViolations rose past before.
func budgetHeld(day int, before uint64) error {
	if after := budgetViolations(); after > before {
		return fmt.Errorf("day %d: budget identity violated: %d neighbourhood day(s) settled with Σp ≠ ξ·κ (%s)",
			day, after-before, obs.MetricMechBudgetViolations)
	}
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
