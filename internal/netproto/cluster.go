package netproto

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/obs"
	"enki/internal/parallel"
	"enki/internal/sched"
	"enki/internal/settle"
)

// ClusterConfig carries the cluster-specific knobs of the option set;
// the settlement parameters (pricer, mechanism, rating, trace seed,
// ledger) are shared with the single-neighborhood center options.
// Prefer StartCluster with functional options.
type ClusterConfig struct {
	// Shards is the number of neighborhoods the membership is
	// partitioned into (≥ 1). Each shard settles as its own independent
	// mechanism day — its own scheduler, its own Theorem 1 budget.
	Shards int
	// Workers sizes the worker pool shards settle on. Zero means
	// GOMAXPROCS. The worker count never changes a settled byte.
	Workers int
	// BatchSize caps the messages per batch frame on shard links
	// (≥ 1; zero means DefaultBatchSize).
	BatchSize int
	// Records keeps every shard's full per-household DayRecord on the
	// ClusterDayRecord. Disable for memory-bounded million-household
	// runs, which then retain only the per-shard summaries.
	Records bool
	// ShardFaults injects a deterministic fault plan into the named
	// shards' links (chaos testing). Message indexes count across the
	// shard link's whole lifetime, so a plan names the same messages on
	// every run. Shards without an entry run fault-free.
	ShardFaults map[int]*FaultPlan
}

func (c ClusterConfig) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("netproto: cluster shards %d must be at least 1", c.Shards)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("netproto: cluster batch size %d must be positive", c.BatchSize)
	}
	for shard := range c.ShardFaults {
		if shard < 0 || shard >= c.Shards {
			return fmt.Errorf("netproto: fault plan for shard %d outside [0, %d)", shard, c.Shards)
		}
	}
	return nil
}

// clusterSeedSalt namespaces per-shard RNG streams within the cluster's
// trace seed, so a shard's scheduler stream never collides with trace
// IDs or session tokens derived from the same seed.
const clusterSeedSalt = 0x636c7573 // "clus"

// shardState is the durable per-shard machinery: the framed link the
// shard's protocol messages travel through, and the shard's own
// scheduler (with a seed-derived RNG for the paper's random
// tie-breaking) so concurrent shards never share mutable state.
type shardState struct {
	link      *shardLink
	scheduler sched.Scheduler
	ids       []core.HouseholdID // the members, sorted
	policies  []Policy           // the members' policies, aligned with ids

	// src and reg carry the shard's federated metrics dimension when
	// reporting is on: reg accumulates the shard's own series across
	// days, and each day's payment batch carries a metricsReport with
	// reg's snapshot under the src source name ("shard/0003" — zero-
	// padded so federation sources sort in shard-index order).
	src string
	reg *obs.Registry
}

// Cluster is the sharded multi-neighborhood settlement service: it
// partitions its households into Shards neighborhoods and settles all
// of them concurrently, each through the same batch framing a TCP
// connection carries. Create with StartCluster, enroll
// households with Join, run days with ClusterDay.
//
// StartCenter remains the single-shard special case of this service
// with real sockets under it; the cluster trades the sockets for
// in-process links so a million households settle in seconds while
// every message still passes through a batch frame in the configured
// codec.
//
// Determinism contract: the settled output — every ShardDay, every
// DayRecord byte, every ledger entry — is bit-identical for any worker
// count and any Join order. Shard seeds derive from the trace seed and
// the shard index, results land in pre-sized per-shard slots, and the
// ledger streams in shard-index order: each worker encodes its shard's
// line, and the worker that completes the in-order prefix appends it.
type Cluster struct {
	center  centerConfig  // settlement parameters shared with the center
	cfg     ClusterConfig // cluster-specific knobs
	codec   Codec
	engine  parallel.Engine
	custom  bool // scheduler came from WithScheduler (shared across shards)
	mu      sync.Mutex
	members map[core.HouseholdID]Policy
	shards  []*shardState
	dirty   bool // membership changed since shards were built
	closed  bool

	scratchMu sync.Mutex
	scratch   []*linkScratch // free link scratches (see linkScratch)

	*operatorPlane // its shard rows rebuilt at each merge
}

// StartCluster starts a sharded settlement service configured by
// functional options; unset options take the paper's defaults plus one
// shard — the single-neighborhood special case. The cluster does not
// keep ctx: it holds no sockets or goroutines between days, and each
// ClusterDay takes its own context.
func StartCluster(ctx context.Context, opts ...Option) (*Cluster, error) {
	if ctx == nil {
		return nil, errors.New("netproto: nil context")
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	if err := o.validate("StartCluster", targetCluster); err != nil {
		return nil, err
	}
	custom := o.center.Scheduler != nil
	center := o.resolveCenter()
	cfg := o.cluster
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if err := center.validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plane, err := newOperatorPlane(center)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		center:        center,
		cfg:           cfg,
		codec:         center.codec(),
		engine:        parallel.Engine{Workers: cfg.Workers},
		custom:        custom,
		members:       make(map[core.HouseholdID]Policy),
		dirty:         true,
		operatorPlane: plane,
	}, nil
}

// Join enrolls a household. Households may join between days; the next
// ClusterDay repartitions the membership (sorted by household ID, in
// contiguous near-equal blocks) so the partition is a pure function of
// the member set, never of join order.
func (c *Cluster) Join(id core.HouseholdID, policy Policy) error {
	if policy == nil {
		return errors.New("netproto: nil policy")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("netproto: cluster closed")
	}
	if _, ok := c.members[id]; ok {
		return fmt.Errorf("netproto: duplicate household id %d", id)
	}
	c.members[id] = policy
	c.dirty = true
	return nil
}

// Members returns the number of enrolled households.
func (c *Cluster) Members() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.members)
}

// Shards returns the configured shard count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// Close marks the cluster closed; subsequent Join and ClusterDay calls
// fail. There are no sockets or goroutines to tear down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// rebuildShards repartitions the membership into shards. Callers hold
// c.mu. Repartitioning re-derives each shard's scheduler stream and
// resets its link's fault-plan message index, which is why mid-sequence
// joins change subsequent days (they change the neighborhoods
// themselves) but never the days already settled.
func (c *Cluster) rebuildShards() {
	ids := make([]core.HouseholdID, 0, len(c.members))
	for id := range c.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	policies := make([]Policy, len(ids))
	for i, id := range ids {
		policies[i] = c.members[id]
	}

	root := dist.New(c.center.TraceSeed)
	n := len(ids)
	c.shards = make([]*shardState, c.cfg.Shards)
	for s := 0; s < c.cfg.Shards; s++ {
		lo, hi := s*n/c.cfg.Shards, (s+1)*n/c.cfg.Shards
		scheduler := c.center.Scheduler
		if !c.custom {
			// Fresh Greedy per shard: the paper's random tie-breaking from
			// a seed-derived stream, owned by this shard alone.
			scheduler = &sched.Greedy{
				Pricer: c.center.Pricer,
				Rating: c.center.Rating,
				RNG:    root.Split(clusterSeedSalt, uint64(s)),
			}
		}
		c.shards[s] = &shardState{
			link: &shardLink{
				shard: s,
				codec: c.codec,
				batch: c.cfg.BatchSize,
				plan:  c.cfg.ShardFaults[s],
			},
			scheduler: scheduler,
			ids:       ids[lo:hi],
			policies:  policies[lo:hi],
		}
		if c.fed != nil {
			c.shards[s].src = fmt.Sprintf("shard/%04d", s)
			c.shards[s].reg = obs.NewRegistry()
		}
	}
	c.dirty = false
}

// ShardDay is one neighborhood's outcome within a cluster day. A shard
// either settles (Err empty, aggregates populated, Record present when
// records are kept) or fails in isolation (Err set, siblings
// untouched).
type ShardDay struct {
	Shard   int    `json:"shard"`
	TraceID string `json:"traceId,omitempty"`

	Households  int `json:"households"`            // members at dawn
	Settled     int `json:"settled"`               // households with a bill
	Absent      int `json:"absent,omitempty"`      // never reported; sat the day out
	Substituted int `json:"substituted,omitempty"` // settled via the imputed defector path

	Cost    float64 `json:"cost"`    // κ(ω) for this neighborhood
	Revenue float64 `json:"revenue"` // Σ payments (Theorem 1: ξ·κ)
	Peak    float64 `json:"peak"`    // peak hourly load

	// Record is the shard's full per-household day record; nil when the
	// cluster runs with WithShardRecords(false) or the shard failed.
	Record *DayRecord `json:"record,omitempty"`

	Err string `json:"err,omitempty"` // non-empty when the shard failed
}

// ClusterDayRecord is the deterministic merge of one day across every
// shard: the per-shard outcomes in shard-index order plus cluster-wide
// aggregates. Failed shards are reported here rather than failing the
// day — one faulty neighborhood never perturbs its siblings' ledgers.
type ClusterDayRecord struct {
	Day    int        `json:"day"`
	Shards []ShardDay `json:"shards"`

	Households  int `json:"households"`
	Settled     int `json:"settled"`
	Absent      int `json:"absent,omitempty"`
	Substituted int `json:"substituted,omitempty"`
	Failed      int `json:"failed,omitempty"` // shards with Err set

	Cost    float64 `json:"cost"`    // Σ shard costs
	Revenue float64 `json:"revenue"` // Σ shard revenues
	Peak    float64 `json:"peak"`    // max shard peak
}

// ClusterDay settles day for every shard concurrently and merges the
// outcomes. It is not safe for concurrent use with itself. Shard
// failures (a shard whose protocol round breaks) are isolated into
// their ShardDay.Err; the error return is reserved for cluster-level
// problems — no members, a closed cluster, a context already done at
// the call, or a failed ledger write.
//
// Cancellation: ctx is checked once, before any shard starts. A started
// day always settles and pays every household, so a day cancelled while
// its shards run returns its record, with every settled shard's line in
// the ledger.
//
// Ledger: each shard worker encodes its settled day's ledger line, and
// the workers append the lines in shard-index order while the shards
// still run (see ledgerStream). The first failed write stops every
// later one: the ledger keeps the lines before it, the day closes
// failed on the operator plane, and the error wraps "netproto: audit
// ledger".
func (c *Cluster) ClusterDay(ctx context.Context, day int) (*ClusterDayRecord, error) {
	start := time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("netproto: cluster closed")
	}
	if len(c.members) == 0 {
		c.mu.Unlock()
		return nil, errors.New("netproto: no enrolled households")
	}
	if c.dirty {
		c.rebuildShards()
	}
	shards := c.shards
	memberCount := len(c.members)
	c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	c.stat.mu.Lock()
	c.stat.day = obs.DayStatus{Day: day, Phase: "settling", Members: memberCount, DaysSettled: c.stat.day.DaysSettled}
	c.stat.mu.Unlock()

	// Parallel phase: each shard settles into its own pre-sized slot and
	// never returns an error into ForEach (an error would stop dispatch
	// and starve sibling shards); failures are recorded in the slot.
	// Per-shard wall-clock lands in the status row, never in the
	// ShardDay — its JSON stays bit-identical across worker counts.
	days := make([]ShardDay, len(shards))
	rows := make([]obs.ShardStatus, len(shards))
	var ledger *ledgerStream
	if c.center.Ledger != nil {
		ledger = newLedgerStream(c.center.Ledger, c.engine.WorkerCount(), len(shards))
	}
	_ = c.engine.ForEach(len(shards), func(s int) error {
		t0 := time.Now()
		days[s], rows[s] = c.runShardDay(ctx, shards[s], s, day, ledger)
		rows[s].LastSettleMS = sinceMS(t0)
		return nil
	})
	if err := ledger.writeErr(); err != nil {
		err = fmt.Errorf("netproto: audit ledger: %w", err)
		c.stat.closeDay(start, obs.ShardStatus{LastDay: day, Households: memberCount, Err: err.Error()}, 0, nil, "")
		return nil, err
	}

	// The merge folds the aggregates in shard-index order, so the float
	// sums are the same for any worker count.
	rec := &ClusterDayRecord{Day: day, Shards: days}
	for s := range days {
		d := &days[s]
		rec.Households += d.Households
		if d.Err != "" {
			rec.Failed++
			continue
		}
		rec.Settled += d.Settled
		rec.Absent += d.Absent
		rec.Substituted += d.Substituted
		rec.Cost += d.Cost
		rec.Revenue += d.Revenue
		if d.Peak > rec.Peak {
			rec.Peak = d.Peak
		}
	}
	obs.Default().Counter(obs.MetricClusterDaysTotal).Inc()
	total := obs.ShardStatus{Healthy: rec.Failed == 0, LastDay: day, Settled: rec.Settled, Absent: rec.Absent,
		Substituted: rec.Substituted, Cost: rec.Cost, Revenue: rec.Revenue, Residual: rec.Revenue - c.center.Mechanism.Xi*rec.Cost}
	if dayAction(total) != "ok" {
		obs.Default().Counter(obs.MetricNetDegradedDaysTotal).Inc()
	}
	// The latency exemplar is the slowest shard's trace: the cluster day
	// has no trace of its own, and the slowest shard is where it went.
	slowest := 0
	for s := range rows {
		if rows[s].LastSettleMS > rows[slowest].LastSettleMS {
			slowest = s
		}
	}
	c.stat.mu.Lock()
	c.stat.day.Members, c.stat.day.Reported, c.stat.day.Dark = rec.Households, rec.Settled, rec.Absent+rec.Substituted
	c.stat.mu.Unlock()
	c.stat.closeDay(start, total, rec.Peak, rows, rows[slowest].TraceID)
	return rec, nil
}

// runShardDay runs one shard's day (see dayRun.run) over its
// batch-framed link. Message loss (injected faults) degrades the shard
// the same way agent darkness degrades the TCP center: a household
// whose preference never arrives is absent; one that reported and then
// went dark is on the machine's dark set. It returns the shard's day
// and its operator row. When the cluster keeps a ledger, it encodes a
// settled day's ledger entry and hands the line to ledger; a failed or
// empty shard hands in no line.
func (c *Cluster) runShardDay(ctx context.Context, st *shardState, shard, day int, ledger *ledgerStream) (ShardDay, obs.ShardStatus) {
	start := time.Now()
	tid := obs.DeriveTraceID(c.center.TraceSeed, uint64(day), uint64(shard))
	var span *obs.ActiveSpan
	if tr := obs.DefaultTracer(); tr.Enabled() {
		span = tr.StartTrace(tid, obs.SpanClusterShard, "day", strconv.Itoa(day), "shard", strconv.Itoa(shard))
	}
	out := ShardDay{Shard: shard, TraceID: tid, Households: len(st.ids)}
	row := obs.ShardStatus{Shard: shard, Healthy: true, TraceID: tid, LastDay: day}
	var line shardLine
	var err error
	if len(st.ids) > 0 { // an empty shard (more shards than households) settles trivially
		// A leg carries one message per member at most, plus the payment
		// leg's trailing metricsReport.
		ls := c.takeScratch()
		ls.reset(len(st.ids) + 1)
		cfg := c.center.Config
		cfg.Scheduler = st.scheduler
		d := dayRun{cfg: cfg, day: day, traceID: tid, root: span,
			legs: &shardLegs{st: st, ls: ls, fed: c.fed, day: day, tid: tid, start: start}}
		if !c.cfg.Records {
			// The day settles in the pooled scratch, so everything below
			// that reads the outcome runs before the scratch goes back.
			// A kept record must not alias it.
			d.scratch = &ls.settle
		}
		var settled settle.Outcome
		settled, err = d.run(ctx, st.ids)
		if err == nil {
			if ledger != nil {
				entry := d.scratch.LedgerEntry(&settled)
				line.buf, line.err = ledgerLine(&entry)
			}
			row = settled.Status
			row.Shard = shard
			r := settled.Record
			out.Settled, out.Absent, out.Substituted = row.Settled, row.Absent, row.Substituted
			out.Cost, out.Revenue, out.Peak = r.Cost, row.Revenue, r.Peak
			if c.cfg.Records {
				out.Record = r
			}
		}
		c.putScratch(ls)
	}
	ledger.hand(shard, line)
	if err != nil {
		out.Err = err.Error()
		row = obs.ShardStatus{Shard: shard, TraceID: tid, LastDay: day, Households: out.Households, Err: out.Err}
		obs.Default().Counter(obs.MetricClusterShardFailures).Inc()
	} else {
		countSettledShard(obs.Default(), row)
	}
	span.End()
	obs.Default().Histogram(obs.MetricClusterShardSettleMS, obs.LatencyBucketsMS).Observe(sinceMS(start))
	if rec := obs.DefaultRecorder(); rec.Enabled() {
		rec.Record(obs.Event{Kind: obs.EventShardDay, Day: day, Shard: shard, Action: dayAction(row),
			N: out.Settled, TraceID: tid, Err: out.Err})
	}
	return out, row
}

// ledgerStream is one cluster day's ordered ledger. A worker hands in
// its shard's line under the mutex; then, unless another worker is
// already draining, it drains: it writes every line now in order —
// shard s's once shards 0..s-1 are written, then any later lines
// waiting on it — releasing the mutex across each Journal write, so the
// other workers hand in their lines meanwhile and return to their
// shards. The drainer re-reads the order under the mutex after each
// write and stops at the first shard not handed in, whose worker drains
// next. A worker never waits for a slower shard, and waits for a write
// only when more lines than there are workers already wait for the
// drainer, so lines do not pile up behind a slow write. The writes
// overlap the parallel phase, and the ledger reads in shard-index order
// for any worker count. A written line's pooled buffer goes back to
// ledgerBufs while at most one line per worker still waits; the buffers
// of a longer run, which builds up behind a stalled shard, go to the
// garbage collector, so the pool does not keep them live. After the
// first encode or write error nothing more is written, so the ledger
// keeps the prefix before the failure.
type ledgerStream struct {
	j     *Journal
	limit int // lines that may wait on a running drain: one per worker

	mu       sync.Mutex
	taken    sync.Cond   // on mu: a drain took a line, or ended
	lines    []shardLine // by shard; cleared once written
	next     int         // the first shard not yet written
	waiting  int         // lines handed in and not yet taken by a drain
	draining bool        // a worker is writing the lines in order
	err      error       // the first encode or write error
}

// newLedgerStream returns the stream of a day of n shards that runs on
// workers workers and writes to j.
func newLedgerStream(j *Journal, workers, n int) *ledgerStream {
	w := &ledgerStream{j: j, limit: workers, lines: make([]shardLine, n)}
	w.taken.L = &w.mu
	return w
}

// shardLine is one shard's hand-in: its encoded ledger line in a
// pooled buffer, nil when the shard writes none (failed or empty), or
// the encode error.
type shardLine struct {
	buf    *[]byte
	err    error
	handed bool
}

// hand records shard's line and, unless another worker is draining,
// drains; while another drains, it waits only as long as more than
// limit lines wait for that drain. A nil stream (no ledger) ignores it.
func (w *ledgerStream) hand(shard int, l shardLine) {
	if w == nil {
		return
	}
	w.mu.Lock()
	l.handed = true
	w.lines[shard] = l
	w.waiting++
	if !w.draining {
		w.drain()
	}
	for w.draining && w.waiting > w.limit {
		w.taken.Wait()
	}
	w.mu.Unlock()
}

// drain writes every line now in order and releases its buffer (see
// ledgerStream). Callers hold w.mu, which drain releases across each
// write.
func (w *ledgerStream) drain() {
	w.draining = true
	for ; w.next < len(w.lines) && w.lines[w.next].handed; w.next++ {
		in := w.lines[w.next]
		w.lines[w.next] = shardLine{handed: true}
		w.waiting--
		w.taken.Broadcast()
		if w.err == nil {
			w.err = in.err
		}
		if in.buf == nil {
			continue
		}
		if w.err == nil {
			w.mu.Unlock()
			err := w.j.writeLine(*in.buf, false)
			w.mu.Lock()
			w.err = err
		}
		if w.waiting <= w.limit {
			ledgerBufs.Put(in.buf)
		}
	}
	w.draining = false
	w.taken.Broadcast()
}

// writeErr returns the day's first encode or write error; a nil stream
// returns nil.
func (w *ledgerStream) writeErr() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// countSettledShard counts a settled shard day into reg: the default
// registry, and a reporting shard's own.
func countSettledShard(reg *obs.Registry, row obs.ShardStatus) {
	reg.Counter(obs.MetricClusterShardsSettled).Inc()
	reg.Counter(obs.MetricClusterHouseholdsSettled).Add(uint64(row.Settled))
	if row.Substituted > 0 {
		reg.Counter(obs.MetricClusterSubstitutionsTotal).Add(uint64(row.Substituted))
	}
	if row.Absent > 0 {
		reg.Counter(obs.MetricClusterAbsentTotal).Add(uint64(row.Absent))
	}
}

// shardLegs are a shard day's legs: every leg crosses the shard's link
// in the day's pooled scratch, and the members' policies answer on the
// far side. Link messages carry no trace context.
type shardLegs struct {
	st    *shardState
	ls    *linkScratch
	fed   *obs.Federation // non-nil when the cluster federates reports
	day   int
	tid   string
	start time.Time
}

func (l *shardLegs) exchange(_ context.Context, _ *obs.ActiveSpan, members []core.HouseholdID, assignments []core.Assignment) ([]*Message, error) {
	st, ls, day := l.st, l.ls, l.day
	ids := members
	if assignments == nil {
		for _, id := range members {
			ls.add(KindRequest, id, day)
		}
	} else {
		ids = ls.ids[:0]
		for _, a := range assignments {
			ids = append(ids, a.ID)
			ls.add(KindAllocation, a.ID, day).setInterval(a.Interval)
		}
		ls.ids = ids
	}
	delivered, err := st.link.transfer(ls)
	if err != nil {
		return nil, err
	}
	// Each member's policy answers what reached it; loss either way
	// leaves its reply nil.
	forEachDelivered(st.ids, delivered, func(i int, msg *Message) {
		if assignments == nil {
			ls.add(KindPreference, st.ids[i], day).setPref(st.policies[i].Report(day))
		} else {
			ls.add(KindConsumption, st.ids[i], day).setInterval(st.policies[i].Consume(day, *msg.Interval))
		}
	})
	if delivered, err = st.link.transfer(ls); err != nil {
		return nil, err
	}
	if cap(ls.replies) < len(ids) {
		ls.replies = make([]*Message, len(ids))
	}
	replies := ls.replies[:len(ids)]
	clear(replies)
	forEachDelivered(ids, delivered, func(i int, msg *Message) { replies[i] = msg })
	return replies, nil
}

// deliver sends the payments best-effort — the settled record is
// already authoritative, so loss here only suppresses a household's
// feedback. When reporting is on, the shard's cumulative metrics
// snapshot rides the same batch as one trailing metricsReport message —
// through the same codec, counted by the same wire metrics, subject to
// the same fault plan (a dropped or garbled frame loses the day's
// report; the next day's cumulative snapshot covers the gap). Only an
// encode error fails the shard.
func (l *shardLegs) deliver(_ *obs.ActiveSpan, out *settle.Outcome) error {
	st, ls, day, record := l.st, l.ls, l.day, out.Record
	for i, r := range record.Reports {
		ls.add(KindPayment, r.ID, day).setPayment(record.Notice(i))
	}
	if st.reg != nil {
		countSettledShard(st.reg, out.Status)
		st.reg.Gauge(obs.MetricMechTheorem1Deviation).Set(out.Status.Residual)
		st.reg.Histogram(obs.MetricClusterShardSettleMS, obs.LatencyBucketsMS).ObserveExemplar(sinceMS(l.start), l.tid)
		ls.add(KindMetricsReport, 0, day).msg.Metrics = &obs.MetricsReport{Source: st.src, Snapshot: st.reg.Snapshot()}
	}
	delivered, err := st.link.transfer(ls)
	if err != nil {
		return err
	}
	// The trailing metricsReport (ID 0, no payment) must never reach the
	// member walk: extract it by kind before delivering feedback.
	var report *obs.MetricsReport
	kept := delivered[:0]
	for _, m := range delivered {
		if m.Kind != KindMetricsReport {
			kept = append(kept, m)
		} else if m.Metrics != nil {
			report = m.Metrics
		}
	}
	forEachDelivered(st.ids, kept, func(i int, msg *Message) { st.policies[i].Feedback(day, *msg.Payment) })
	if report != nil && l.fed != nil {
		l.fed.Report(report)
	}
	return nil
}

// forEachDelivered merge-walks delivered messages against the sorted
// ids their leg was sent to, calling fn once per delivered household
// with its index in ids. Delivery preserves order and duplicates
// (FaultDup) arrive adjacent, so a single forward walk suffices — no
// per-leg maps, which matters at a million households.
func forEachDelivered(ids []core.HouseholdID, delivered []*Message, fn func(i int, msg *Message)) {
	i := 0
	var last core.HouseholdID = -1
	for _, msg := range delivered {
		if msg.ID == last {
			continue // duplicate delivery
		}
		for i < len(ids) && ids[i] < msg.ID {
			i++
		}
		if i >= len(ids) {
			return
		}
		if ids[i] == msg.ID {
			fn(i, msg)
			last = msg.ID
			i++
		}
	}
}

// shardLink is the in-process stand-in for a shard's wire: every
// message batch is encoded into a real batch frame (AppendBatch) and
// decoded back out by the same frame parser DecodeBatch uses, so frame
// counts, messages-per-frame, and per-codec byte volumes in the wire
// metrics are honest — the cluster measures the same framing a TCP
// connection would carry, minus the socket. The link keeps only its
// fault-plan position between days; message storage is the running
// shard day's linkScratch.
type shardLink struct {
	shard int
	codec Codec
	batch int
	plan  *FaultPlan
	next  int // fault-plan message index, cumulative across days
}

// linkScratch is the storage of one running shard day: the leg being
// built and sent, the leg just delivered, the frame between them, and
// the settle.Scratch the day's machine settles in. A shard day takes
// one from its cluster's free list and returns it when it ends, so the
// cluster holds one per shard day that ever ran at once (at most one
// per worker), never one per shard. A free list rather than a
// sync.Pool: a collection never drops a warm scratch, so a warm day
// never grows one again.
//
// Ownership contract: the delivered messages transfer returns point
// into recv and are valid only until the next transfer. Callers copy
// values out — policies, reports, DayRecords and ledger entries never
// hold a pointer into a slot. A day settled in settle aliases it until
// the shard day returns the scratch, so the shard day encodes its
// ledger line first, and a cluster that keeps records never settles in
// it.
type linkScratch struct {
	send      []slot             // the leg being built; capacity fixed by reset
	recv      []slot             // decode slots of the delivered leg
	delivered []*Message         // into recv, in delivery order
	replies   []*Message         // delivered replies aligned with the leg's ids
	ids       []core.HouseholdID // the allocation leg's households
	batch     []*Message         // one frame's messages, duplicates included
	frame     []byte             // one encoded frame
	settle    settle.Scratch     // the day machine's storage
}

// takeScratch returns a free link scratch, or a new one when every
// scratch the cluster holds is in a running shard day.
func (c *Cluster) takeScratch() *linkScratch {
	c.scratchMu.Lock()
	defer c.scratchMu.Unlock()
	n := len(c.scratch)
	if n == 0 {
		return new(linkScratch)
	}
	ls := c.scratch[n-1]
	c.scratch = c.scratch[:n-1]
	return ls
}

// putScratch returns a shard day's link scratch to the free list.
func (c *Cluster) putScratch(ls *linkScratch) {
	c.scratchMu.Lock()
	c.scratch = append(c.scratch, ls)
	c.scratchMu.Unlock()
}

// reset readies ls for a shard day whose legs carry at most n messages.
// Reserving send's capacity up front keeps add from ever moving a slot
// that a message payload already points into.
func (ls *linkScratch) reset(n int) {
	if cap(ls.send) < n {
		ls.send = make([]slot, 0, n)
	}
	ls.send = ls.send[:0]
}

// add appends a message of kind for household id on day to the leg
// being built and returns its slot, whose setters store the message's
// payload inline.
func (ls *linkScratch) add(kind Kind, id core.HouseholdID, day int) *slot {
	ls.send = ls.send[:len(ls.send)+1]
	s := &ls.send[len(ls.send)-1]
	s.msg = Message{Kind: kind, ID: id, Day: day}
	return s
}

// transfer carries the leg built in ls across the link in batches of up
// to batch messages and returns what arrived, in order; the leg is
// consumed, so ls is ready to build the next one. Faults from the
// link's plan apply per message index: drop loses the message, dup
// delivers it twice, delay delivers normally (latency is meaningless
// in-process, but the fault is still counted), and garble corrupts the
// whole frame carrying the message — the receiver's decode fails and
// every message in that frame is lost, the batched analogue of a
// garbled TCP frame killing a connection. Only encode bugs return an
// error.
func (l *shardLink) transfer(ls *linkScratch) ([]*Message, error) {
	leg := ls.send
	ls.send = ls.send[:0]
	ls.delivered = ls.delivered[:0]
	// Every message arrives at most twice (FaultDup), so recv never
	// grows mid-leg and the pointers in delivered stay put.
	need := len(leg)
	if l.plan != nil {
		need *= 2
	}
	if cap(ls.recv) < need {
		ls.recv = make([]slot, need)
	}
	ls.recv = ls.recv[:need]
	used := 0
	for start := 0; start < len(leg); start += l.batch {
		end := min(start+l.batch, len(leg))
		batch := ls.batch[:0]
		garbled := false
		for i := start; i < end; i++ {
			m := &leg[i].msg
			action := l.plan.ActionAt(l.next)
			l.next++
			if action != FaultNone {
				countFault(action, l.shard, l.next-1)
			}
			switch action {
			case FaultDrop:
				continue
			case FaultDup:
				batch = append(batch, m, m)
			case FaultGarble:
				garbled = true
				batch = append(batch, m)
			default: // FaultNone, FaultDelay
				batch = append(batch, m)
			}
		}
		ls.batch = batch
		if len(batch) == 0 {
			continue
		}
		frame, err := AppendBatch(ls.frame[:0], l.codec, batch)
		if err != nil {
			return nil, err
		}
		ls.frame = frame
		observeBatch(obs.DirectionSent, l.codec, len(batch), len(frame))
		if garbled {
			garble(frame)
		}
		c, n, err := decodeFrame(frame[4:], func(i int) *slot { return &ls.recv[used+i] })
		if err != nil {
			if garbled {
				continue // the corrupted frame is lost in its entirety
			}
			return nil, err
		}
		observeBatch(obs.DirectionReceived, c, n, len(frame))
		for i := used; i < used+n; i++ {
			ls.delivered = append(ls.delivered, &ls.recv[i].msg)
		}
		used += n
	}
	return ls.delivered, nil
}
