// Package net is the public facade over Enki's settlement protocol. It
// re-exports the center, the agent, the sharded cluster, and the
// fault-tolerance surface of internal/netproto so that library users
// can run a networked neighborhood — or thousands of them — without
// reaching into internal packages.
//
// A minimal TCP session:
//
//	center, _ := net.StartCenter("127.0.0.1:0", net.WithPhaseDeadline(5*time.Second))
//	agent, _ := net.Connect(ctx, center.Addr(), 0, &net.Truthful{Type: typ})
//	center.WaitForAgentsContext(ctx, 1)
//	record, _ := center.RunDayContext(ctx, 1)
//
// StartCenter is the single-shard special case: one neighborhood, real
// sockets. To settle many neighborhoods concurrently, StartCluster
// partitions the households into shards and drives every shard's
// protocol messages through the same batched wire framing a TCP
// connection negotiates, minus the sockets:
//
//	cluster, _ := net.StartCluster(ctx, net.WithShards(1000), net.WithCodec(net.CodecBinary))
//	for i, typ := range types {
//		cluster.Join(core.HouseholdID(i), &net.Truthful{Type: typ})
//	}
//	record, _ := cluster.ClusterDay(ctx, 1) // per-shard DayRecords, merged deterministically
//
// To survive the center itself crashing, StartReplicaSet replicates the
// settlement journal across 2f+1 replicas with a quorum commit rule and
// fails over mid-day — the next leader resumes the day from the
// replicated journal and the agents reconnect through the set's Dialer:
//
//	rs, _ := net.StartReplicaSet(ctx, net.WithReplicas(3), net.WithLedger(journal))
//	agent, _ := net.Connect(ctx, rs.Addr(), 0, &net.Truthful{Type: typ},
//		net.WithDialer(rs.Dialer()), net.WithRetryPolicy(net.DefaultRetryPolicy()))
//	rs.WaitForAgentsContext(ctx, 1)
//	record, _ := rs.RunDayContext(ctx, 1)
//
// For fault-tolerant agents add net.WithRetryPolicy; for deterministic
// chaos testing add net.WithFaultPlan (per-connection) or
// net.WithShardFaultPlan (per-shard). See example_test.go for complete
// runnable sessions.
//
// Every With* option declares which constructors it configures;
// passing one elsewhere (say WithShards to Connect) is a descriptive
// error rather than a silent no-op. Failure modes are classified by
// the exported sentinels (ErrNotLeader, ErrQuorumLost,
// ErrSessionExpired, ErrRetryExhausted) for errors.Is.
package net

import (
	"context"
	"io"
	stdnet "net"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/netproto"
)

// Protocol endpoints and behaviours (see internal/netproto).
type (
	// Center is the neighborhood center: it registers agents and runs
	// the daily request/preference/allocation/consumption/payment cycle.
	Center = netproto.Center
	// Agent is a household endpoint driven by a Policy.
	Agent = netproto.Agent
	// Policy decides how a household reports and consumes.
	Policy = netproto.Policy
	// Truthful reports its true preference and consumes as assigned.
	Truthful = netproto.Truthful
	// Misreporter widens its reported window to appear flexible.
	Misreporter = netproto.Misreporter
	// Option configures StartCenter, StartCenterListener, StartCluster,
	// StartReplicaSet, Connect, and NewAgent.
	Option = netproto.Option
	// DialFunc establishes one transport connection to the center.
	DialFunc = netproto.DialFunc
	// RetryPolicy bounds agent reconnection: attempts, exponential
	// backoff, and seeded jitter.
	RetryPolicy = netproto.RetryPolicy
	// FaultPlan schedules deterministic faults on outbound messages.
	FaultPlan = netproto.FaultPlan
	// FaultAction is one scheduled fault: drop, delay, dup, or garble.
	FaultAction = netproto.FaultAction
	// Journal is the append-only JSONL writer of WithLedger's audit
	// ledger: one LedgerEntry per settled day, read back with
	// ReadLedger.
	Journal = netproto.Journal
	// LedgerEntry is one settled day's audit-ledger line: every Eq. 4–7
	// intermediate, which its Audit method re-derives.
	LedgerEntry = mechanism.LedgerEntry
	// DayRecord is a completed settlement day, including any degraded
	// households (Substituted, Absent). Its ledger entry, not the
	// record, is what a WithLedger journal persists.
	DayRecord = netproto.DayRecord
	// PaymentDetail is the per-household payment message body.
	PaymentDetail = netproto.PaymentDetail
	// Cluster is the sharded multi-neighborhood settlement service.
	Cluster = netproto.Cluster
	// ClusterDayRecord is one settled day merged across every shard.
	ClusterDayRecord = netproto.ClusterDayRecord
	// ShardDay is one neighborhood's outcome within a cluster day.
	ShardDay = netproto.ShardDay
	// ReplicaSet is a settlement center replicated across 2f+1 nodes
	// with a quorum journal and mid-day leader failover.
	ReplicaSet = netproto.ReplicaSet
)

// Sentinel errors, for errors.Is. Constructors and agents wrap these
// consistently so callers can classify failures without string
// matching.
var (
	// ErrNotLeader marks an operation routed to a replica that no
	// longer leads.
	ErrNotLeader = netproto.ErrNotLeader
	// ErrQuorumLost marks a replicated operation that could not reach a
	// majority of replicas.
	ErrQuorumLost = netproto.ErrQuorumLost
	// ErrSessionExpired marks a reconnect whose session token the
	// center no longer recognizes.
	ErrSessionExpired = netproto.ErrSessionExpired
	// ErrRetryExhausted marks an agent that spent every reconnect
	// attempt of its retry policy.
	ErrRetryExhausted = netproto.ErrRetryExhausted
)

// Batch-frame codecs a connection or cluster link can negotiate.
const (
	// CodecJSON is the JSON codec inside batch frames (the default).
	CodecJSON = netproto.CodecJSON
	// CodecBinary is the compact binary codec.
	CodecBinary = netproto.CodecBinary
	// DefaultBatchSize is the messages-per-frame cap when batching is
	// enabled without an explicit WithBatchSize.
	DefaultBatchSize = netproto.DefaultBatchSize
)

// Fault actions a FaultPlan can schedule.
const (
	FaultNone   = netproto.FaultNone
	FaultDrop   = netproto.FaultDrop
	FaultDelay  = netproto.FaultDelay
	FaultDup    = netproto.FaultDup
	FaultGarble = netproto.FaultGarble
)

// Protocol defaults.
const (
	// DefaultPhaseDeadline bounds each protocol phase on the center.
	DefaultPhaseDeadline = netproto.DefaultPhaseDeadline
	// DefaultFaultHold is the delay a FaultDelay injects when the plan
	// sets no Hold.
	DefaultFaultHold = netproto.DefaultFaultHold
	// DefaultReplicas is StartReplicaSet's replica count without
	// WithReplicas: 2f+1 with f=1.
	DefaultReplicas = netproto.DefaultReplicas
	// DefaultQuorumTimeout bounds each replica append/commit round trip.
	DefaultQuorumTimeout = netproto.DefaultQuorumTimeout
)

// StartCenter listens on addr and serves the settlement protocol,
// configured by options (default: quadratic pricing, greedy scheduling,
// paper mechanism parameters).
func StartCenter(addr string, opts ...Option) (*Center, error) {
	return netproto.StartCenter(addr, opts...)
}

// StartCenterListener is StartCenter over a caller-supplied listener
// (for TLS or test transports).
func StartCenterListener(ln stdnet.Listener, opts ...Option) (*Center, error) {
	return netproto.StartCenterListener(ln, opts...)
}

// Connect dials the center, registers household id, and returns a
// running agent. The context governs the initial dial and handshake;
// later reconnects are governed by the retry policy.
func Connect(ctx context.Context, addr string, id core.HouseholdID, policy Policy, opts ...Option) (*Agent, error) {
	return netproto.Connect(ctx, addr, id, policy, opts...)
}

// NewAgent runs an agent over a caller-supplied connection. Without
// WithDialer such an agent cannot reconnect after a link failure.
func NewAgent(conn stdnet.Conn, id core.HouseholdID, policy Policy, opts ...Option) (*Agent, error) {
	return netproto.NewAgent(conn, id, policy, opts...)
}

// StartCluster starts a sharded settlement service: the households
// enrolled via Join are partitioned into WithShards neighborhoods and
// every ClusterDay settles all of them concurrently over a worker pool,
// bit-identically for any worker count or join order. Every protocol
// message crosses a shard link as a real batch frame in the WithCodec
// codec, so the wire metrics (frames, messages per frame, per-codec
// bytes) measure the same framing a TCP connection would carry.
func StartCluster(ctx context.Context, opts ...Option) (*Cluster, error) {
	return netproto.StartCluster(ctx, opts...)
}

// StartReplicaSet starts a quorum-replicated settlement center:
// WithReplicas(n) nodes (n odd, default 3), one of which leads the
// agent-facing protocol while replicating every durable decision —
// memberships, phase boundaries, settled days — to the others,
// committing each once a majority holds it. If the leader dies, the
// lowest live replica takes over mid-day and resumes from the last
// committed phase boundary; agents that dial through Dialer and carry a
// retry policy reconnect to the new leader with their session tokens
// and the day settles to the same ledger bytes as a fault-free run.
// Replica health is served at /api/v1/replicas on Operator's handler.
func StartReplicaSet(ctx context.Context, opts ...Option) (*ReplicaSet, error) {
	return netproto.StartReplicaSet(ctx, opts...)
}

// Configuration options, re-exported from internal/netproto.
var (
	WithScheduler      = netproto.WithScheduler
	WithPricer         = netproto.WithPricer
	WithMechanism      = netproto.WithMechanism
	WithRating         = netproto.WithRating
	WithPhaseDeadline  = netproto.WithPhaseDeadline
	WithTraceSeed      = netproto.WithTraceSeed
	WithLedger         = netproto.WithLedger
	WithFaultPlan      = netproto.WithFaultPlan
	WithRetryPolicy    = netproto.WithRetryPolicy
	WithDialer         = netproto.WithDialer
	WithCodec          = netproto.WithCodec
	WithShards         = netproto.WithShards
	WithBatchSize      = netproto.WithBatchSize
	WithWorkers        = netproto.WithWorkers
	WithShardRecords   = netproto.WithShardRecords
	WithShardFaultPlan = netproto.WithShardFaultPlan
	// WithMetricsReporting piggybacks per-agent (and per-shard) metrics
	// snapshots onto the existing wire phases so the center or cluster
	// federates them at /api/v1/federation.
	WithMetricsReporting = netproto.WithMetricsReporting
	// WithSLO installs burn-rate objectives on the center, cluster or
	// replica set (defaults to obs.DefaultObjectives when called with
	// none).
	WithSLO = netproto.WithSLO
	// WithReplicas sets StartReplicaSet's replica count (odd, 2f+1).
	WithReplicas = netproto.WithReplicas
	// WithQuorumTimeout bounds each append/commit round trip to one
	// follower.
	WithQuorumTimeout = netproto.WithQuorumTimeout
)

// DefaultRetryPolicy returns the stock reconnect policy: 5 attempts,
// 50ms base delay doubling to a 2s cap, ±20% seeded jitter.
func DefaultRetryPolicy() RetryPolicy { return netproto.DefaultRetryPolicy() }

// ParseRetryPolicy parses a policy spec such as
// "attempts=5,base=50ms,max=2s,mult=2,jitter=0.2,seed=1" (the
// enkiagent -retry flag format). An empty spec disables reconnection.
func ParseRetryPolicy(spec string) (RetryPolicy, error) {
	return netproto.ParseRetryPolicy(spec)
}

// ParseFaultPlan parses a fault-plan spec such as "drop@3,dup@7" or
// "seed=42,msgs=100,drop=0.05" (the -fault-plan flag format). An empty
// spec returns a nil, fault-free plan.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	return netproto.ParseFaultPlan(spec)
}

// GenerateFaultPlan draws a deterministic fault schedule over msgs
// message indices with the given per-action probabilities.
func GenerateFaultPlan(seed uint64, msgs int, drop, delay, dup, garble float64) *FaultPlan {
	return netproto.GenerateFaultPlan(seed, msgs, drop, delay, dup, garble)
}

// NewJournal returns a journal writing JSON lines to w. Passed to
// WithLedger it receives the audit ledger; read that back with
// ReadLedger.
func NewJournal(w io.Writer) *Journal { return netproto.NewJournal(w) }

// ReadLedger decodes the audit-ledger entries a WithLedger journal
// wrote, tolerating a truncated trailing line from a crash.
func ReadLedger(r io.Reader) ([]LedgerEntry, error) { return mechanism.ReadLedger(r) }
