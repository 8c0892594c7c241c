package obs

import "strings"

// Metric names. Every series the repository registers is named here —
// CI lint greps for registrations whose name is a string literal
// outside this package. The "_ms" suffix marks wall-clock timing
// series, which Snapshot.DiffDeterministic exempts from the
// bit-identical Workers:1 vs Workers:N contract.
//
// DESIGN.md ("Observability") maps each metric to the equation or
// paper section it validates.
const (
	// internal/sched — per-scheduler allocation behaviour (Section IV-C).
	MetricSchedAllocateTotal      = "enki_sched_allocate_total"
	MetricSchedAllocateLatencyMS  = "enki_sched_allocate_latency_ms"
	MetricSchedDefermentSlots     = "enki_sched_deferment_slots_total"
	MetricSchedDeferredHouseholds = "enki_sched_deferred_households_total"

	// internal/solver — branch-and-bound search effort (Eq. 2). The
	// pruned counter is labeled by bound (LabelBound) so the cascade's
	// per-bound hit rates are visible; frontier tasks counts the
	// deterministic root-decomposition subtrees handed to the worker
	// pool, and candidates fixed counts root reduced-cost candidate
	// eliminations. The node-rate gauge is an instantaneous wall-clock
	// reading (nodes/s of the last solve) and, like every gauge, exempt
	// from the determinism contract.
	MetricSolverSolvesTotal      = "enki_solver_solves_total"
	MetricSolverNodesExpanded    = "enki_solver_nodes_expanded_total"
	MetricSolverNodesPruned      = "enki_solver_nodes_pruned_total"
	MetricSolverIncumbentUpdates = "enki_solver_incumbent_updates_total"
	MetricSolverLimitedTotal     = "enki_solver_limited_total"
	MetricSolverFrontierTasks    = "enki_solver_frontier_tasks_total"
	MetricSolverCandidatesFixed  = "enki_solver_candidates_fixed_total"
	MetricSolverNodeRate         = "enki_solver_node_rate"

	// internal/mechanism — per-day settlement quantities (Eqs. 4-8).
	MetricMechSettlementsTotal = "enki_mechanism_settlements_total"
	MetricMechFlexibilityScore = "enki_mechanism_flexibility_score"
	MetricMechDefectionScore   = "enki_mechanism_defection_score"
	MetricMechSocialCostScore  = "enki_mechanism_social_cost_score"
	MetricMechPaymentDollars   = "enki_mechanism_payment_dollars"
	MetricMechBudgetResidual   = "enki_mechanism_budget_residual_dollars"
	MetricMechPaymentSpread    = "enki_mechanism_payment_spread_dollars"
	MetricMechDayPAR           = "enki_mechanism_day_par"

	// internal/parallel — experiment engine utilization.
	MetricParallelJobsTotal   = "enki_parallel_jobs_total"
	MetricParallelJobErrors   = "enki_parallel_job_errors_total"
	MetricParallelWorkersBusy = "enki_parallel_workers_busy"
	MetricParallelQueueDepth  = "enki_parallel_queue_depth"

	// internal/netproto — Figure 1 protocol traffic and phases.
	MetricNetMessagesTotal  = "enki_netproto_messages_total"
	MetricNetBytesTotal     = "enki_netproto_bytes_total"
	MetricNetPhaseLatencyMS = "enki_netproto_phase_latency_ms"
	MetricNetTimeoutsTotal  = "enki_netproto_timeouts_total"
	MetricNetDaysTotal      = "enki_netproto_days_total"

	// internal/netproto — fault-tolerance layer: reconnect attempts and
	// session resumes (labeled by side), degraded-day settlement volume
	// (households billed from journaled reports via the Eq. 5 defector
	// path), injected chaos faults (labeled by action), and phase-message
	// replays served to resuming agents. The deadline-remaining series is
	// wall-clock ("_ms") and thus exempt from the determinism contract.
	MetricNetRetriesTotal             = "enki_netproto_retries_total"
	MetricNetResumesTotal             = "enki_netproto_resumes_total"
	MetricNetDegradedDaysTotal        = "enki_netproto_degraded_days_total"
	MetricNetSubstitutionsTotal       = "enki_netproto_substituted_households_total"
	MetricNetFaultsTotal              = "enki_netproto_faults_injected_total"
	MetricNetReplaysTotal             = "enki_netproto_replayed_messages_total"
	MetricNetPhaseDeadlineRemainingMS = "enki_netproto_phase_deadline_remaining_ms"

	// internal/netproto — batched wire framing and codec accounting.
	// Frames and messages-per-frame are deterministic for a given day's
	// content (framing depends only on batch size and message order);
	// codec bytes are deterministic per codec, which is what makes the
	// JSON-vs-binary delta in BENCH_net.json a stable quantity.
	MetricNetFramesTotal     = "enki_netproto_frames_total"
	MetricNetFrameMessages   = "enki_netproto_frame_messages"
	MetricNetCodecBytesTotal = "enki_netproto_codec_bytes_total"

	// internal/netproto — sharded cluster settlement: days and shards
	// settled, shard failures (chaos), and the per-shard settle latency
	// histogram ("_ms", exempt from the determinism contract). Shard
	// queue depth during a cluster day is the parallel engine's
	// enki_parallel_queue_depth gauge — the cluster schedules shards as
	// parallel jobs, so the engine's utilization series are its own.
	MetricClusterDaysTotal          = "enki_cluster_days_total"
	MetricClusterShardsSettled      = "enki_cluster_shards_settled_total"
	MetricClusterShardFailures      = "enki_cluster_shard_failures_total"
	MetricClusterShardSettleMS      = "enki_cluster_shard_settle_latency_ms"
	MetricClusterHouseholdsSettled  = "enki_cluster_households_settled_total"
	MetricClusterSubstitutionsTotal = "enki_cluster_substituted_households_total"

	// internal/netproto — operator plane: end-to-end day-settle latency
	// ("_ms", wall clock, exempt from the determinism contract; its
	// exemplars carry the slowest day's trace ID), and per-day absences
	// (households that were members at dawn but never reported).
	MetricNetDaySettleMS     = "enki_netproto_day_settle_latency_ms"
	MetricClusterAbsentTotal = "enki_cluster_absent_households_total"

	// internal/mechanism — Theorem 1 enforcement: settlements whose
	// Σp − ξ·κ residual left the floating-point tolerance band, and the
	// last settled day's signed deviation. The counter is deterministic
	// (a pure function of the settled bytes); the gauge, like every
	// gauge, holds the most recent day.
	MetricMechBudgetViolations  = "enki_mechanism_budget_violations_total"
	MetricMechTheorem1Deviation = "enki_mechanism_theorem1_deviation_dollars"

	// internal/obs — metrics federation: reports merged into the
	// cluster-wide view, labeled by the reporting side (shard or agent).
	MetricObsFederationReports = "enki_obs_federation_reports_total"

	// internal/netproto — agent-local series piggybacked to the center as
	// metricsReport messages when WithMetricsReporting is on: preferences
	// reported and days settled, both deterministic per household.
	MetricAgentReportsTotal = "enki_agent_reports_total"
	MetricAgentDaysSettled  = "enki_agent_days_settled_total"

	// internal/obs — SLO engine exports: per-objective-per-window burn
	// rate (error-budget consumption speed; 1.0 = burning exactly the
	// budget), per-objective health (1 healthy, 0 violated), and the
	// evaluation counter. All are wall-clock-window facts and, being
	// gauges plus a scrape-driven counter, outside the determinism
	// contract.
	MetricSLOBurnRate = "enki_slo_burn_rate"
	MetricSLOHealthy  = "enki_slo_healthy"
	MetricSLOSamples  = "enki_slo_samples_total"

	// internal/obs — the tracer's own health: spans evicted from the
	// bounded ring (a long -trace-out run outgrowing its retention).
	MetricObsTraceDropped = "enki_obs_trace_dropped_total"

	// internal/obs — flight recorder and debug-bundle trigger engine:
	// events captured into the recorder ring, events evicted when the
	// ring wraps, bundles written, bundle requests suppressed by the
	// rate limit, bundle writes that failed, and the last bundle's
	// write time (a wall-clock gauge, Unix seconds; 0 until the first
	// incident). Event captures are deterministic counts (payloads are
	// pure functions of the settled work); the drop counter depends
	// only on ring capacity and event volume.
	MetricObsRecorderEvents   = "enki_obs_recorder_events_total"
	MetricObsRecorderDropped  = "enki_obs_recorder_dropped_total"
	MetricObsBundleWrites     = "enki_obs_bundle_writes_total"
	MetricObsBundleSuppressed = "enki_obs_bundle_suppressed_total"
	MetricObsBundleErrors     = "enki_obs_bundle_errors_total"
	MetricObsBundleLastUnix   = "enki_obs_bundle_last_unix"

	// internal/netproto replica set — quorum-journal replication
	// health, labeled by replica ID (LabelReplica). Role is 1 on the
	// leader and 0 on followers; term counts elections; commit lag is
	// the gap between the longest held log and a replica's commit
	// watermark; failovers counts mid-day leader takeovers. All four
	// are pure functions of the replicated log and the kill schedule,
	// so they sit inside the Workers:1≡Workers:N determinism contract.
	MetricReplicaRole           = "enki_replica_role"
	MetricReplicaTerm           = "enki_replica_term"
	MetricReplicaCommitLag      = "enki_replica_commit_lag"
	MetricReplicaFailoversTotal = "enki_replica_failovers_total"
)

// Span names. Every span the repository starts is named here — the
// metric-lint CI step greps for Start{Span,Trace,Child,Remote} calls
// whose name is a string literal outside this package, exactly as it
// does for metric registrations.
const (
	// internal/netproto — one settlement day is one trace: a root day
	// span with per-phase children on the center, and remote children
	// on each agent sharing the day's trace ID via the wire context.
	SpanNetDay        = "netproto.day"
	SpanNetPhase      = "netproto.phase"
	SpanNetSettle     = "netproto.settle"
	SpanNetAgentPhase = "netproto.agent.phase"

	// internal/experiment — one simulated sweep day is one trace with
	// per-scheduler allocation children.
	SpanSweepDay      = "sweep.day"
	SpanSweepAllocate = "sweep.allocate"

	// internal/netproto cluster — each shard's settlement day is its own
	// trace (trace ID derived from the shard seed and day), so a
	// million-household day is a forest of shard traces rather than one
	// giant span tree.
	SpanClusterShard = "cluster.shard"
)

// Shared label keys.
const (
	LabelScheduler = "scheduler"
	LabelDirection = "direction"
	LabelPhase     = "phase"
	LabelSide      = "side"
	LabelAction    = "action"
	LabelBound     = "bound"
	LabelCodec     = "codec"
	LabelObjective = "objective"
	LabelWindow    = "window"
	LabelSource    = "source"
	LabelReplica   = "replica"
)

// Bound label values for the solver's pruned-nodes series: which bound
// of the cascade cut the subtree.
const (
	BoundSuperadditive = "superadditive"
	BoundWaterfill     = "waterfill"
	BoundRelaxation    = "relaxation"
	BoundChild         = "child"
	BoundMemo          = "memo"
)

// Side label values for netproto retry/resume series: which end of the
// link observed the event.
const (
	SideCenter = "center"
	SideAgent  = "agent"
)

// Direction label values for netproto traffic.
const (
	DirectionSent     = "sent"
	DirectionReceived = "received"
)

// Bucket layouts. A metric name maps to exactly one layout.
var (
	// LatencyBucketsMS spans 10µs to 10s, roughly ×3 per step — wide
	// enough for both greedy allocations (µs) and budgeted Optimal
	// solves (seconds).
	LatencyBucketsMS = []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000, 10000}

	// ScoreBuckets covers the mechanism's normalized score band: Ψ_i
	// lives in [k/3, 3k] for k = 1 (Eq. 6), flexibility and defection
	// raw scores in [0, ~1.5).
	ScoreBuckets = []float64{0.05, 0.1, 0.2, 0.333, 0.5, 0.667, 1, 1.5, 2, 3, 5}

	// DollarBuckets covers per-household payments and per-day budget
	// quantities for neighborhood sizes up to a few hundred.
	DollarBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

	// BatchBuckets covers messages-per-frame counts for the batched wire
	// framing, from the TCP path's single-message frames up to the
	// cluster links' kilomessage batches.
	BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// IsTimingMetric reports whether the series key names a wall-clock
// timing metric, which the determinism contract exempts.
func IsTimingMetric(key string) bool {
	return strings.HasSuffix(BaseName(key), "_ms")
}
