package netproto

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"enki/internal/mechanism"
	"enki/internal/obs"
	"enki/internal/pricing"
	"enki/internal/sched"
	"enki/internal/settle"
)

// DialFunc establishes one transport connection to the center. The
// default dials plain TCP; supply your own (via WithDialer) for TLS or
// test transports. Agents call it again on every reconnect attempt.
type DialFunc func(ctx context.Context) (net.Conn, error)

// agentConfig is the agent side of the option set.
type agentConfig struct {
	retry     RetryPolicy
	plan      *FaultPlan
	dial      DialFunc
	reporting bool // piggyback per-agent obs snapshots on the consumption phase
}

// replicaConfig is the replica-set side of the option set.
type replicaConfig struct {
	n             int           // replica count, odd (2f+1)
	quorumTimeout time.Duration // per-follower deadline on append/commit round trips
}

// target is the bitmask of constructors an option applies to. Every
// option declares its targets so a constructor can reject options that
// would otherwise be silently ignored (e.g. WithShards on Connect).
type target uint8

const (
	targetCenter target = 1 << iota
	targetAgent
	targetCluster
	targetReplica
)

// constructors names the constructor functions a target mask covers, in
// a fixed order, for validation error messages.
func (t target) constructors() string {
	var names []string
	if t&targetCenter != 0 {
		names = append(names, "StartCenter")
	}
	if t&targetAgent != 0 {
		names = append(names, "Connect/NewAgent")
	}
	if t&targetCluster != 0 {
		names = append(names, "StartCluster")
	}
	if t&targetReplica != 0 {
		names = append(names, "StartReplicaSet")
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// appliedOption records one applied With* option for target validation.
type appliedOption struct {
	name    string
	targets target
}

// options is the combined center/agent/cluster/replica option state.
// One Option type serves every constructor; each constructor validates
// that every applied option actually targets it, so a misplaced option
// is a descriptive error instead of a silent no-op.
type options struct {
	center  centerConfig
	agent   agentConfig
	cluster ClusterConfig
	replica replicaConfig
	applied []appliedOption
}

// Option configures StartCenter, StartCenterListener, Connect,
// NewAgent, StartCluster, and StartReplicaSet. Each option declares
// which constructors it targets; passing it elsewhere returns a
// descriptive error from the constructor.
type Option func(*options)

// option wraps an apply function with its name and target mask so
// constructors can validate the applied set.
func option(name string, targets target, apply func(*options)) Option {
	return func(o *options) {
		o.applied = append(o.applied, appliedOption{name: name, targets: targets})
		apply(o)
	}
}

// validate checks every applied option against the constructor's
// target, returning a descriptive error for the first mismatch.
func (o *options) validate(ctor string, t target) error {
	for _, a := range o.applied {
		if a.targets&t == 0 {
			return fmt.Errorf("netproto: %s does not apply to %s (it configures %s)",
				a.name, ctor, a.targets.constructors())
		}
	}
	return nil
}

// Replica-set defaults.
const (
	// DefaultReplicas is the replica count without WithReplicas: 2f+1
	// with f=1, the smallest set that survives one center crash.
	DefaultReplicas = 3
	// DefaultQuorumTimeout bounds each append/commit round trip to one
	// follower before the leader counts it as unreachable.
	DefaultQuorumTimeout = 2 * time.Second
)

// defaultOptions is the options-based constructors' starting point: the
// quadratic pricer from the paper's evaluation, the default mechanism
// parameters, and a 2 kW appliance rating. The scheduler defaults to
// Greedy over the final pricer and rating, resolved after every option
// has applied (see resolveCenter).
func defaultOptions() *options {
	return &options{
		center: centerConfig{
			Config: settle.Config{
				Pricer:    pricing.Quadratic{Sigma: pricing.DefaultSigma},
				Mechanism: mechanism.DefaultConfig(),
				Rating:    2,
			},
			Codec: CodecJSON,
		},
		cluster: ClusterConfig{
			Shards:    1,
			BatchSize: DefaultBatchSize,
			Records:   true,
		},
		replica: replicaConfig{
			n:             DefaultReplicas,
			quorumTimeout: DefaultQuorumTimeout,
		},
	}
}

// resolveCenter finalizes the center config once all options have
// applied: a nil scheduler becomes Greedy over the configured pricer
// and rating, so WithPricer/WithRating compose with the default
// scheduler instead of being ignored by a prematurely built one.
func (o *options) resolveCenter() centerConfig {
	cfg := o.center
	if cfg.Scheduler == nil {
		cfg.Scheduler = &sched.Greedy{Pricer: cfg.Pricer, Rating: cfg.Rating}
	}
	return cfg
}

// settlementTargets is the mask for options that configure how a day
// settles — meaningful wherever a center runs, including inside a
// cluster shard or a replica set.
const settlementTargets = targetCenter | targetCluster | targetReplica

// WithScheduler sets the center's allocation scheduler (default:
// sched.Greedy over the configured pricer and rating).
func WithScheduler(s sched.Scheduler) Option {
	return option("WithScheduler", settlementTargets, func(o *options) { o.center.Scheduler = s })
}

// WithPricer sets the hourly pricing function on the center (default:
// the paper's quadratic pricer).
func WithPricer(p pricing.Pricer) Option {
	return option("WithPricer", settlementTargets, func(o *options) { o.center.Pricer = p })
}

// WithMechanism sets the mechanism's payment-scaling parameters
// (default: mechanism.DefaultConfig).
func WithMechanism(m mechanism.Config) Option {
	return option("WithMechanism", settlementTargets, func(o *options) { o.center.Mechanism = m })
}

// WithRating sets the per-household appliance power rating in kW
// (default: 2).
func WithRating(r float64) Option {
	return option("WithRating", settlementTargets, func(o *options) { o.center.Rating = r })
}

// WithPhaseDeadline bounds each protocol phase on the center: a
// household that has not answered when the deadline expires is settled
// dark — excluded from the day if it never reported, imputed via the
// Eq. 5 defector path if it reported and then vanished. Default:
// DefaultPhaseDeadline.
func WithPhaseDeadline(d time.Duration) Option {
	return option("WithPhaseDeadline", settlementTargets, func(o *options) { o.center.PhaseDeadline = d })
}

// WithTraceSeed sets the seed for the center's deterministic per-day
// trace IDs and session tokens.
func WithTraceSeed(seed uint64) Option {
	return option("WithTraceSeed", settlementTargets, func(o *options) { o.center.TraceSeed = seed })
}

// WithLedger directs the center's per-day audit-ledger entries to j. On
// a replica set j receives the quorum-committed merged ledger: every
// committed day exactly once, across failovers.
func WithLedger(j *Journal) Option {
	return option("WithLedger", settlementTargets, func(o *options) { o.center.Ledger = j })
}

// WithFaultPlan installs a deterministic fault-injection schedule on
// outbound messages — per accepted connection on a center, across the
// whole message stream (reconnects included) on an agent. Nil restores
// fault-free delivery.
func WithFaultPlan(p *FaultPlan) Option {
	return option("WithFaultPlan", targetCenter|targetAgent|targetReplica, func(o *options) {
		o.center.FaultPlan = p
		o.agent.plan = p
	})
}

// WithRetryPolicy enables agent-side reconnection with the given
// bounded-backoff policy. Agents without a policy (the default) treat
// the first link failure as terminal, matching the pre-fault-tolerance
// behaviour.
func WithRetryPolicy(p RetryPolicy) Option {
	return option("WithRetryPolicy", targetAgent, func(o *options) { o.agent.retry = p })
}

// WithDialer replaces the agent's transport dialer (default: plain TCP
// to the Connect address). Reconnect attempts reuse it, so a TLS agent
// keeps TLS across resumes — and a replica-set agent keeps following
// the current leader (see ReplicaSet.Dialer).
func WithDialer(d DialFunc) Option {
	return option("WithDialer", targetAgent, func(o *options) { o.agent.dial = d })
}

// WithCodec sets the batch-frame codec (CodecJSON or CodecBinary) the
// center — or every shard link of a cluster — encodes with. A TCP
// center uses it on each connection whose agent's hello offers it, and
// JSON on the others. An unknown name fails the constructor. Default:
// CodecJSON.
func WithCodec(name string) Option {
	return option("WithCodec", settlementTargets, func(o *options) { o.center.Codec = name })
}

// WithMetricsReporting enables obs federation on both sides of the
// protocol: agents piggyback a cumulative per-agent snapshot on every
// consumption phase, cluster shards append theirs to the payment batch,
// and the center (or cluster) folds every report into the federated
// registry behind /api/v1/federation. Default off — the extra wire
// messages shift fault-plan indices, so chaos plans written against the
// plain stream stay valid unless a test opts in.
func WithMetricsReporting(on bool) Option {
	return option("WithMetricsReporting", settlementTargets|targetAgent, func(o *options) {
		o.center.Reporting = on
		o.agent.reporting = on
	})
}

// WithSLO installs the burn-rate objectives the center's operator plane
// evaluates on every /api/v1/slo scrape. Called with no arguments it
// installs obs.DefaultObjectives. Without this option the endpoint
// serves 404.
func WithSLO(objectives ...obs.Objective) Option {
	return option("WithSLO", settlementTargets, func(o *options) {
		if len(objectives) == 0 {
			objectives = obs.DefaultObjectives()
		}
		o.center.SLO = objectives
	})
}

// WithShards partitions a cluster's households into n neighborhoods,
// each settled as its own independent mechanism day (default 1 — the
// single-neighborhood special case).
func WithShards(n int) Option {
	return option("WithShards", targetCluster, func(o *options) { o.cluster.Shards = n })
}

// WithBatchSize caps the messages carried per batch frame on cluster
// shard links (default DefaultBatchSize; 1 degenerates to unbatched
// framing, the baseline the BENCH_net delta is measured against).
func WithBatchSize(n int) Option {
	return option("WithBatchSize", targetCluster, func(o *options) { o.cluster.BatchSize = n })
}

// WithWorkers sets the worker-pool size a cluster settles shards with
// (default 0 = GOMAXPROCS; the Workers:1≡Workers:N contract guarantees
// the count never changes any settled byte).
func WithWorkers(n int) Option {
	return option("WithWorkers", targetCluster, func(o *options) { o.cluster.Workers = n })
}

// WithShardRecords controls whether ClusterDay retains every shard's
// full per-household DayRecord (default true). Disabled, a day keeps
// only the per-shard summaries — the memory-bounded mode the
// million-household enkiload runs use.
func WithShardRecords(keep bool) Option {
	return option("WithShardRecords", targetCluster, func(o *options) { o.cluster.Records = keep })
}

// WithShardFaultPlan injects a deterministic fault plan into one
// shard's link (chaos testing): message indexes count per shard per
// day-phase stream, so a plan names the same messages on every run.
// Sibling shards are untouched.
func WithShardFaultPlan(shard int, plan *FaultPlan) Option {
	return option("WithShardFaultPlan", targetCluster, func(o *options) {
		if o.cluster.ShardFaults == nil {
			o.cluster.ShardFaults = make(map[int]*FaultPlan)
		}
		o.cluster.ShardFaults[shard] = plan
	})
}

// WithReplicas sets the replica count of a StartReplicaSet — 2f+1
// centers surviving f crashes (default DefaultReplicas = 3). The count
// must be odd and positive so every quorum is a strict majority.
func WithReplicas(n int) Option {
	return option("WithReplicas", targetReplica, func(o *options) { o.replica.n = n })
}

// WithQuorumTimeout bounds each append/commit round trip to one
// follower (default DefaultQuorumTimeout). A follower that misses the
// deadline does not count toward the entry's quorum.
func WithQuorumTimeout(d time.Duration) Option {
	return option("WithQuorumTimeout", targetReplica, func(o *options) { o.replica.quorumTimeout = d })
}
