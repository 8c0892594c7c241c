// Command enkid runs a neighborhood center daemon: it listens for
// household ECC agents (cmd/enkiagent), waits until the expected
// number have registered, then runs the Figure 1 day cycle the
// requested number of times and prints each day's settlement. (For the
// sharded in-process service settling many neighborhoods at once, see
// net.StartCluster and cmd/enkiload.)
//
// Flags are grouped into namespaces — -shard.* for the neighborhood
// being settled, -wire.* for the transport, -replica.* for quorum
// replication, -obs.* for observability:
//
//	enkid -wire.addr 127.0.0.1:7600 -shard.agents 3 -shard.days 2
//	enkid -wire.codec binary            # settle in the compact codec with agents that offer it
//	enkid -obs.http 127.0.0.1:8080      # /metrics, /healthz, pprof
//	enkid -obs.trace-out day-spans.jsonl
//	enkid -obs.ledger audit.jsonl       # per-day mechanism audit ledger
//	enkid -wire.phase-deadline 5s       # settle dark households instead of hanging
//	enkid -wire.fault-plan seed=42,msgs=100,drop=0.05
//	enkid -replica.n 3                  # replicate the center: quorum journal + failover
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/obs"
	"enki/internal/pricing"
	"enki/internal/sched"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		obs.Logger().Error("enkid failed", "err", err)
		os.Exit(1)
	}
}

// daemonFlags is the parsed enkid flag surface, one namespaced name
// per flag (-shard.*, -wire.*, -replica.*, -obs.*).
type daemonFlags struct {
	addr       string
	codec      string
	deadline   time.Duration
	faultSpec  string
	agents     int
	days       int
	wait       time.Duration
	sigma      float64
	rating     float64
	xi         float64
	ledger     string
	httpAddr   string
	reporting  bool
	traceOut   string
	traceSeed  uint64
	traceLimit int
	bundleDir  string
	bundleCPU  time.Duration
	replicas   int
	quorumWait time.Duration
	logOpts    *obs.LogOptions
}

// newFlagSet builds enkid's flag set. The -help output is deterministic:
// the flag package prints flags in lexical order, which groups the
// namespaces (obs.*, replica.*, shard.*, wire.*) — the docs test pins
// this.
func newFlagSet() (*flag.FlagSet, *daemonFlags) {
	fs := flag.NewFlagSet("enkid", flag.ContinueOnError)
	f := &daemonFlags{}

	// -shard.*: the neighborhood being settled — who joins it and the
	// mechanism parameters it settles under.
	fs.IntVar(&f.agents, "shard.agents", 2, "number of household agents to wait for")
	fs.IntVar(&f.days, "shard.days", 1, "number of day cycles to run")
	fs.DurationVar(&f.wait, "shard.wait", time.Minute, "how long to wait for agents")
	fs.Float64Var(&f.sigma, "shard.sigma", pricing.DefaultSigma, "pricing scale σ")
	fs.Float64Var(&f.rating, "shard.rating", 2, "power rating r (kW)")
	fs.Float64Var(&f.xi, "shard.xi", mechanism.DefaultXi, "payment scale ξ (≥ 1)")

	// -wire.*: the transport — where the center listens and how frames
	// behave on the way out.
	fs.StringVar(&f.addr, "wire.addr", "127.0.0.1:7600", "listen address")
	fs.StringVar(&f.codec, "wire.codec", netproto.CodecJSON, "day-cycle codec (json or binary), used with each agent whose hello offers it; registration is always json")
	fs.DurationVar(&f.deadline, "wire.phase-deadline", netproto.DefaultPhaseDeadline, "per-phase reply deadline; households dark past it are settled degraded")
	fs.StringVar(&f.faultSpec, "wire.fault-plan", "", "deterministic outbound fault plan, e.g. drop@3,dup@7 or seed=42,msgs=100,drop=0.05")

	// -replica.*: quorum replication of the settlement journal. n = 1
	// runs the plain single center on -wire.addr; n > 1 replicates it
	// across n nodes on ephemeral loopback listeners.
	fs.IntVar(&f.replicas, "replica.n", 1, "settlement-center replicas (odd, 2f+1; 1 = unreplicated)")
	fs.DurationVar(&f.quorumWait, "replica.quorum-timeout", netproto.DefaultQuorumTimeout, "per-follower deadline on append/commit round trips")

	// -obs.*: observability — metrics endpoint, audit ledger, traces.
	fs.StringVar(&f.ledger, "obs.ledger", "", "append per-day mechanism audit-ledger entries to this JSONL file")
	fs.StringVar(&f.httpAddr, "obs.http", "", "serve the operator plane on this address: /metrics, /healthz, /readyz, /api/v1/*, pprof (e.g. 127.0.0.1:8080; empty = off)")
	fs.BoolVar(&f.reporting, "obs.reporting", false, "merge agent metricsReport snapshots into the federated view at /api/v1/federation")
	fs.StringVar(&f.traceOut, "obs.trace-out", "", "write the day-cycle span trace to this JSONL file")
	fs.Uint64Var(&f.traceSeed, "obs.trace-seed", 0, "seed for the deterministic per-day trace IDs and session tokens")
	fs.IntVar(&f.traceLimit, "obs.trace-limit", 0, "max retained spans before the oldest are dropped (0 = default)")
	fs.StringVar(&f.bundleDir, "obs.bundle-dir", "", "enable the flight recorder and write debug bundles here on SLO breach, shard degradation, SIGUSR1, or POST /api/v1/debug/bundle (empty = off)")
	fs.DurationVar(&f.bundleCPU, "obs.bundle-cpu", 0, "CPU-profile length captured into each debug bundle (0 = skip; capture blocks the trigger for the duration)")
	f.logOpts = obs.LogFlags(fs)
	return fs, f
}

func run(args []string) error {
	fs, f := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := f.logOpts.Apply(nil)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	pricer, err := pricing.NewQuadratic(f.sigma)
	if err != nil {
		return err
	}
	plan, err := netproto.ParseFaultPlan(f.faultSpec)
	if err != nil {
		return fmt.Errorf("parse -wire.fault-plan: %w", err)
	}
	if _, ok := netproto.LookupCodec(f.codec); !ok {
		return fmt.Errorf("unknown -wire.codec %q (have: %v)", f.codec, netproto.CodecNames())
	}
	var ledgerLog *netproto.Journal
	if f.ledger != "" {
		file, err := os.OpenFile(f.ledger, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer file.Close()
		ledgerLog = netproto.NewJournal(file)
	}

	scheduler := &sched.Greedy{Pricer: pricer, Rating: f.rating}
	centerOpts := []netproto.Option{
		netproto.WithScheduler(scheduler),
		netproto.WithPricer(pricer),
		netproto.WithMechanism(mechanism.Config{K: mechanism.DefaultK, Xi: f.xi}),
		netproto.WithRating(f.rating),
		netproto.WithPhaseDeadline(f.deadline),
		netproto.WithTraceSeed(f.traceSeed),
		netproto.WithLedger(ledgerLog),
		netproto.WithFaultPlan(plan),
		netproto.WithCodec(f.codec),
		netproto.WithMetricsReporting(f.reporting),
	}
	if f.httpAddr != "" || f.bundleDir != "" {
		// The operator plane and the bundle trigger both imply the SLO
		// engine: /api/v1/slo and the breach watcher burn against the
		// default objectives.
		centerOpts = append(centerOpts, netproto.WithSLO())
	}
	var center settler
	if f.replicas > 1 {
		replicaOpts := append(centerOpts,
			netproto.WithReplicas(f.replicas),
			netproto.WithQuorumTimeout(f.quorumWait))
		rs, err := netproto.StartReplicaSet(ctx, replicaOpts...)
		if err != nil {
			return err
		}
		logger.Info("replica set up", "replicas", f.replicas, "leader", rs.Leader(),
			"note", "-wire.addr ignored: replicas bind ephemeral loopback listeners")
		center = rs
	} else {
		c, err := netproto.StartCenter(f.addr, centerOpts...)
		if err != nil {
			return err
		}
		center = c
	}
	defer center.Close()

	preregisterMetrics(scheduler.Name())
	var operator *obs.Operator
	if f.httpAddr != "" || f.bundleDir != "" {
		operator = center.Operator()
	}
	if f.httpAddr != "" {
		srv, err := obs.ServeOperator(f.httpAddr, operator)
		if err != nil {
			return err
		}
		defer srv.Close()
		logger.Info("operator plane up", "addr", srv.Addr(),
			"endpoints", "/metrics /healthz /readyz /api/v1/{day,shards,ledger/tail,slo,federation,metrics,debug/bundle} /debug/pprof/")
	}
	if f.bundleDir != "" {
		obs.DefaultRecorder().Enable()
		trig, err := obs.NewTrigger(obs.TriggerConfig{
			Dir:        f.bundleDir,
			CPUProfile: f.bundleCPU,
			Config: map[string]string{
				"addr":  f.addr,
				"codec": f.codec,
				"xi":    fmt.Sprint(f.xi),
				"days":  fmt.Sprint(f.days),
			},
		}, obs.BundleSources{
			Operator: operator,
			Recorder: obs.DefaultRecorder(),
			Tracer:   obs.DefaultTracer(),
		})
		if err != nil {
			return err
		}
		operator.Debug = trig
		// SIGUSR1 is the operator's on-demand capture path alongside
		// POST /api/v1/debug/bundle.
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		defer signal.Stop(usr1)
		go func() {
			for range usr1 {
				if path, err := trig.Fire("sigusr1"); err != nil {
					logger.Error("bundle capture failed", "err", err)
				} else if path != "" {
					logger.Info("debug bundle written", "path", path, "reason", "sigusr1")
				}
			}
		}()
		go trig.Watch(ctx, 5*time.Second)
		logger.Info("flight recorder on", "bundle_dir", f.bundleDir)
	}
	if f.traceLimit > 0 {
		obs.DefaultTracer().SetCapacity(f.traceLimit)
	}
	if f.traceOut != "" {
		obs.DefaultTracer().Enable()
		defer func() {
			file, err := os.Create(f.traceOut)
			if err != nil {
				logger.Error("trace export failed", "err", err)
				return
			}
			defer file.Close()
			if err := obs.DefaultTracer().WriteJSONL(file); err != nil {
				logger.Error("trace export failed", "err", err)
			}
		}()
	}

	logger.Info("listening", "addr", center.Addr(), "agents_expected", f.agents)
	waitCtx, cancel := context.WithTimeout(ctx, f.wait)
	err = center.WaitForAgentsContext(waitCtx, f.agents)
	cancel()
	if err != nil {
		return fmt.Errorf("waiting for %d agents: %w", f.agents, err)
	}
	logger.Info("agents registered", "count", center.AgentCount())
	if operator != nil {
		operator.SetReady(true) // enrollment complete: /readyz flips to 200
	}

	for day := 1; day <= f.days; day++ {
		record, err := center.RunDayContext(ctx, day)
		if err != nil {
			return fmt.Errorf("day %d: %w", day, err)
		}
		fmt.Printf("day %d: cost $%.2f, peak %.1f kWh\n", day, record.Cost, record.Peak)
		for i, r := range record.Reports {
			degraded := ""
			if record.Substituted != nil && record.Substituted[i] {
				degraded = " [dark: consumption imputed, settled as defector]"
			}
			fmt.Printf("  household %d: reported %v, allocated %v, consumed %v, pays $%.2f (f=%.2f δ=%.2f)%s\n",
				r.ID, r.Pref, record.Assignments[i].Interval, record.Consumptions[i].Interval,
				record.Payments[i], record.Flexibility[i], record.Defection[i], degraded)
		}
		for _, id := range record.Absent {
			fmt.Printf("  household %d: absent (no preference before the deadline), excluded from the day\n", id)
		}
	}
	return nil
}

// settler is the daemon's view of whatever settles its days: the plain
// single center or, with -replica.n > 1, the quorum-replicated set.
type settler interface {
	Addr() string
	AgentCount() int
	WaitForAgentsContext(ctx context.Context, n int) error
	RunDayContext(ctx context.Context, day int) (*netproto.DayRecord, error)
	Operator() *obs.Operator
	Close() error
}

// preregisterMetrics creates the daemon's core series up front so a
// scrape of a freshly started center already shows the netproto,
// scheduler, and mechanism series at zero instead of a page that
// fills in only after the first day cycle.
func preregisterMetrics(schedulerName string) {
	reg := obs.Default()
	reg.Counter(obs.MetricNetDaysTotal)
	for _, dir := range []string{obs.DirectionSent, obs.DirectionReceived} {
		reg.Counter(obs.MetricNetMessagesTotal, obs.LabelDirection, dir)
		reg.Counter(obs.MetricNetBytesTotal, obs.LabelDirection, dir)
		reg.Counter(obs.MetricNetFramesTotal, obs.LabelDirection, dir)
		for _, codec := range netproto.CodecNames() {
			reg.Counter(obs.MetricNetCodecBytesTotal, obs.LabelCodec, codec, obs.LabelDirection, dir)
		}
	}
	reg.Histogram(obs.MetricNetFrameMessages, obs.BatchBuckets)
	for _, phase := range []string{string(netproto.KindPreference), string(netproto.KindConsumption)} {
		reg.Histogram(obs.MetricNetPhaseLatencyMS, obs.LatencyBucketsMS, obs.LabelPhase, phase)
		reg.Counter(obs.MetricNetTimeoutsTotal, obs.LabelPhase, phase)
		reg.Histogram(obs.MetricNetPhaseDeadlineRemainingMS, obs.LatencyBucketsMS, obs.LabelPhase, phase)
	}
	reg.Counter(obs.MetricNetDegradedDaysTotal)
	reg.Counter(obs.MetricNetSubstitutionsTotal)
	reg.Histogram(obs.MetricNetDaySettleMS, obs.LatencyBucketsMS)
	reg.Counter(obs.MetricNetReplaysTotal)
	for _, side := range []string{obs.SideCenter, obs.SideAgent} {
		reg.Counter(obs.MetricNetResumesTotal, obs.LabelSide, side)
	}
	reg.Counter(obs.MetricNetRetriesTotal)
	for _, action := range []netproto.FaultAction{netproto.FaultDrop, netproto.FaultDelay, netproto.FaultDup, netproto.FaultGarble} {
		reg.Counter(obs.MetricNetFaultsTotal, obs.LabelAction, action.String())
	}
	reg.Counter(obs.MetricSchedAllocateTotal, obs.LabelScheduler, schedulerName)
	reg.Histogram(obs.MetricSchedAllocateLatencyMS, obs.LatencyBucketsMS, obs.LabelScheduler, schedulerName)
	reg.Counter(obs.MetricSchedDefermentSlots, obs.LabelScheduler, schedulerName)
	reg.Counter(obs.MetricSchedDeferredHouseholds, obs.LabelScheduler, schedulerName)
	reg.Counter(obs.MetricMechSettlementsTotal)
	reg.Histogram(obs.MetricMechFlexibilityScore, obs.ScoreBuckets)
	reg.Histogram(obs.MetricMechDefectionScore, obs.ScoreBuckets)
	reg.Histogram(obs.MetricMechSocialCostScore, obs.ScoreBuckets)
	reg.Histogram(obs.MetricMechPaymentDollars, obs.DollarBuckets)
	reg.Gauge(obs.MetricMechBudgetResidual)
	reg.Gauge(obs.MetricMechPaymentSpread)
	reg.Gauge(obs.MetricMechDayPAR)
	reg.Gauge(obs.MetricMechTheorem1Deviation)
	reg.Counter(obs.MetricMechBudgetViolations)
	reg.Counter(obs.MetricObsTraceDropped)
	reg.Counter(obs.MetricObsRecorderEvents)
	reg.Counter(obs.MetricObsRecorderDropped)
	reg.Counter(obs.MetricObsBundleWrites)
	reg.Counter(obs.MetricObsBundleSuppressed)
	reg.Counter(obs.MetricObsBundleErrors)
	reg.Gauge(obs.MetricObsBundleLastUnix)
}
