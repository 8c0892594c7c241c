package netproto

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"enki/internal/core"
	"enki/internal/obs"
	"enki/internal/replica"
	"enki/internal/settle"
)

// centerConfig carries what the functional options set for a center,
// every cluster shard and a replica set's leader: the day machine's
// settlement parameters plus the protocol's.
type centerConfig struct {
	settle.Config
	// PhaseDeadline bounds each protocol phase (preference collection,
	// consumption collection). A household that has not answered when
	// the deadline expires is settled dark for the day: excluded if it
	// never reported, imputed via the Eq. 5 defector path if it
	// reported and then vanished. Zero means DefaultPhaseDeadline.
	PhaseDeadline time.Duration
	// TraceSeed parameterizes the deterministic per-day trace IDs:
	// day d's trace is obs.DeriveTraceID(TraceSeed, d), so two centers
	// replaying the same days under the same seed name the same traces.
	// Session-resumption tokens derive from the same seed. Zero is a
	// valid seed.
	TraceSeed uint64
	// Ledger, when non-nil, receives one mechanism.LedgerEntry per
	// settled day — the per-day audit record of every Eq. 4–7
	// intermediate, linked to the day's trace ID, and the day's one
	// persisted record (one JSONL line per day).
	Ledger *Journal
	// FaultPlan, when non-nil, injects deterministic faults into the
	// center's outbound messages, independently per accepted
	// connection. Test/soak tooling only.
	FaultPlan *FaultPlan
	// Codec is the batch-frame codec the center encodes a connection's
	// day cycle with when the agent's hello offers it (JSON otherwise),
	// and the codec of every cluster shard link: CodecJSON or
	// CodecBinary, empty meaning CodecJSON.
	Codec string
	// Reporting enables metrics federation: agents and cluster shards
	// piggyback metricsReport snapshots onto the settlement wire, and the
	// center merges them into its federated registry view. Off by
	// default — the extra wire messages shift fault-plan message indices,
	// so chaos plans written without reporting stay valid.
	Reporting bool
	// SLO, when non-empty, attaches an SLO engine with these objectives
	// to the center's operator plane (see Operator). Objectives are
	// validated at start-up.
	SLO []obs.Objective
}

// DayRecord is the full outcome of one protocol day (see
// settle.DayRecord). A Journal persists the day's ledger entry, not
// the record.
type DayRecord = settle.DayRecord

// committer is the center's one commit path for its durable decisions:
// household memberships, each day's phase inputs once the day machine
// accepted them, and settled days. A standalone center keeps
// memberships and phase inputs in memory and appends settled days to
// its audit ledger (ledgerCommitter); a replica set's leader commits
// all three to the quorum log, each call blocking until a majority
// holds the entry.
type committer interface {
	commitMember(m memberPayload) error
	commitPhase(day int, phase string, payload any) error
	commitDay(out *settle.Outcome) error
}

// ledgerCommitter is a standalone center's commit path: settled days go
// to the audit ledger, when one is configured.
type ledgerCommitter struct{ ledger *Journal }

func (ledgerCommitter) commitMember(memberPayload) error   { return nil }
func (ledgerCommitter) commitPhase(int, string, any) error { return nil }

func (l ledgerCommitter) commitDay(out *settle.Outcome) error {
	if l.ledger == nil {
		return nil
	}
	entry := out.LedgerEntry()
	line, err := ledgerLine(&entry)
	if err == nil {
		err = l.ledger.writeLine(*line, false)
		ledgerBufs.Put(line)
	}
	if err != nil {
		return fmt.Errorf("netproto: audit ledger: %w", err)
	}
	return nil
}

// memberPayload is the committed record of one household registration.
type memberPayload struct {
	ID    core.HouseholdID `json:"id"`
	Token string           `json:"token"`
	Epoch uint64           `json:"epoch"`
}

// DefaultPhaseDeadline is the per-phase wait applied when no phase
// deadline is set.
const DefaultPhaseDeadline = 10 * time.Second

func (c centerConfig) validate() error {
	if err := c.Config.Validate(); err != nil {
		return fmt.Errorf("netproto: %w", err)
	}
	if _, ok := LookupCodec(c.Codec); !ok && c.Codec != "" {
		return fmt.Errorf("netproto: unknown codec %q", c.Codec)
	}
	return nil
}

// codec resolves the validated Codec name.
func (c centerConfig) codec() Codec {
	if codec, ok := LookupCodec(c.Codec); ok {
		return codec
	}
	return jsonCodec{}
}

// inbound is a message received from a registered agent. The conn
// pointer lets the center discard stale events from a connection that
// has since been replaced by a reconnect.
type inbound struct {
	id   core.HouseholdID
	conn *centerConn
	msg  *Message
	err  error // non-nil when the connection died
}

// centerConn is the center's view of one agent connection.
type centerConn struct {
	id    core.HouseholdID
	conn  net.Conn
	inj   *faultInjector
	codec Codec      // selected on this connection's hello
	mu    sync.Mutex // serializes writes
}

// send writes m in codec through the connection's fault injector.
func (c *centerConn) send(codec Codec, m *Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inj.send(c.conn, codec, m)
}

// session is the center's durable state for one household, surviving
// the connections that come and go beneath it. A session with a nil
// conn is dark: its household is still a neighborhood member, but the
// link is down. The center keeps the last unanswered phase message and
// any undelivered payments so a resuming agent (same ID, same token)
// can be replayed into the point of the day it dropped out of.
type session struct {
	id        core.HouseholdID
	token     string
	conn      *centerConn // nil while dark
	lastOut   *Message    // unanswered phase message, replayed on resume
	missedPay []*Message  // payments issued while dark
}

// tokenSalt namespaces session tokens within the obs.DeriveTraceID
// stream so a token never collides with a day's trace ID.
const tokenSalt = 0x746f6b656e // "token"

func sessionToken(seed uint64, id core.HouseholdID, epoch uint64) string {
	return obs.DeriveTraceID(tokenSalt, seed, uint64(id), epoch)
}

// Center is the neighborhood controller: it accepts household agent
// connections and drives the Figure 1 day cycle of a settle.Machine
// over them. Create with StartCenter; stop with Close, which shuts the
// listener, drops every connection, and waits for all goroutines to
// exit.
type Center struct {
	cfg    centerConfig
	ln     net.Listener
	commit committer

	mu       sync.Mutex
	sessions map[core.HouseholdID]*session
	conns    map[net.Conn]struct{} // every accepted connection, closed by Close
	epoch    uint64                // bumped per fresh registration; invalidates old tokens
	joined   chan struct{}         // signaled (best effort) on each registration

	// committed holds the phase inputs and day entries of a takeover
	// log: a failover leader replays them into a fresh machine instead of
	// collecting those phases again, and commits no day it holds.
	committed map[phaseKey]json.RawMessage

	inbox chan inbound

	*operatorPlane

	wg      sync.WaitGroup
	closing chan struct{}
	once    sync.Once
}

// StartCenter starts a center listening on a plain TCP addr (e.g.
// "127.0.0.1:0"), configured by functional options; unset options take
// the paper's defaults (quadratic pricer, greedy scheduler, default
// mechanism parameters). For TLS or other transports, bring your own
// listener via StartCenterListener.
func StartCenter(addr string, opts ...Option) (*Center, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netproto: listen: %w", err)
	}
	c, err := StartCenterListener(ln, opts...)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return c, nil
}

// StartCenterListener starts a center on a caller-provided listener —
// typically a tls.Listener for encrypted smart-meter links. The center
// takes ownership of the listener and closes it on Close.
func StartCenterListener(ln net.Listener, opts ...Option) (*Center, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	if err := o.validate("StartCenter", targetCenter); err != nil {
		return nil, err
	}
	cfg := o.resolveCenter()
	plane, err := newOperatorPlane(cfg)
	if err != nil {
		return nil, err
	}
	return newCenter(ln, cfg, plane, ledgerCommitter{cfg.Ledger}, nil)
}

// newCenter starts a center that reports into plane and commits through
// commit. log is the committed log a failover leader takes over (nil for
// a fresh center): its member entries rebuild the session table — each
// committed household starts dark and resumes with the token the old
// leader issued — and its phase and day entries are the inputs and the
// settled days RunDayContext replays.
func newCenter(ln net.Listener, cfg centerConfig, plane *operatorPlane, commit committer, log []replica.Entry) (*Center, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PhaseDeadline == 0 {
		cfg.PhaseDeadline = DefaultPhaseDeadline
	}
	c := &Center{
		cfg:           cfg,
		ln:            ln,
		commit:        commit,
		operatorPlane: plane,
		sessions:      make(map[core.HouseholdID]*session),
		conns:         make(map[net.Conn]struct{}),
		joined:        make(chan struct{}, 1),
		inbox:         make(chan inbound),
		closing:       make(chan struct{}),
	}
	for _, e := range log {
		switch e.Kind {
		case replica.KindMember:
			var p memberPayload
			if err := json.Unmarshal(e.Data, &p); err != nil {
				continue
			}
			c.sessions[p.ID] = &session{id: p.ID, token: p.Token}
			c.epoch = max(c.epoch, p.Epoch)
		case replica.KindPhase, replica.KindDay:
			if c.committed == nil {
				c.committed = make(map[phaseKey]json.RawMessage)
			}
			c.committed[phaseKey{e.Day, e.Phase}] = e.Data
		}
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the listening address, for agents to dial.
func (c *Center) Addr() string { return c.ln.Addr().String() }

// Close shuts down the center and waits for all goroutines to exit. It
// closes every accepted connection, registered or still registering.
func (c *Center) Close() error {
	c.once.Do(func() {
		close(c.closing)
		c.ln.Close()
		c.mu.Lock()
		for conn := range c.conns {
			conn.Close()
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
	return nil
}

// AgentCount returns the number of households with a live connection
// (dark sessions awaiting resume are not counted).
func (c *Center) AgentCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.sessions {
		if s.conn != nil {
			n++
		}
	}
	return n
}

// WaitForAgentsContext blocks until n agents are connected or the
// context is done.
func (c *Center) WaitForAgentsContext(ctx context.Context, n int) error {
	for {
		if c.AgentCount() >= n {
			return nil
		}
		select {
		case <-c.joined:
		case <-ctx.Done():
			return fmt.Errorf("netproto: %d of %d agents: %w", c.AgentCount(), n, ctx.Err())
		case <-c.closing:
			return errors.New("netproto: center closed")
		}
	}
}

func (c *Center) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// handleConn performs registration or session resumption, then pumps
// messages into the inbox. A tokenless hello is a fresh agent: it may
// claim a dark session's ID (replacing that session outright) but never
// a live one. A hello bearing the session's token resumes it — the
// center reattaches the connection and replays the phase messages the
// agent missed while dark.
func (c *Center) handleConn(conn net.Conn) {
	defer c.wg.Done()
	if !c.track(conn) {
		return
	}
	defer c.untrack(conn)

	// A connection that stays silent gets one phase deadline to say hello.
	fr := &frameReader{r: conn}
	conn.SetReadDeadline(time.Now().Add(c.cfg.PhaseDeadline))
	hello, err := fr.next()
	if err != nil || hello.Kind != KindHello {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	cc := &centerConn{id: hello.ID, conn: conn, inj: newFaultInjector(c.cfg.FaultPlan),
		codec: selectCodec(c.cfg.codec(), hello.Codecs)}

	c.mu.Lock()
	s := c.sessions[hello.ID]
	resume := false
	fresh := false
	switch {
	case s != nil && s.conn != nil:
		c.mu.Unlock()
		refuse(conn, hello.ID, "duplicate household id")
		return
	case s != nil && hello.Token != "":
		if hello.Token != s.token {
			c.mu.Unlock()
			refuse(conn, hello.ID, "bad session token")
			return
		}
		resume = true
	default:
		c.epoch++
		s = &session{id: hello.ID, token: sessionToken(c.cfg.TraceSeed, hello.ID, c.epoch)}
		c.sessions[hello.ID] = s
		fresh = true
	}
	s.conn = cc
	var replay []*Message
	if resume {
		if s.lastOut != nil {
			replay = append(replay, s.lastOut)
		}
		replay = append(replay, s.missedPay...)
		s.missedPay = nil
	}
	token := s.token
	epoch := c.epoch
	c.mu.Unlock()

	// The membership commits before the welcome: on a replica set the
	// welcome is the promise that a failover leader will recognize this
	// token, so it must not be issued until a majority holds the entry.
	if fresh {
		if err := c.commit.commitMember(memberPayload{ID: hello.ID, Token: token, Epoch: epoch}); err != nil {
			c.mu.Lock()
			if c.sessions[hello.ID] == s {
				delete(c.sessions, hello.ID)
			}
			c.mu.Unlock()
			refuse(conn, hello.ID, "registration not replicated: "+err.Error())
			return
		}
	}

	// The welcome travels in JSON, like the hello: it is what tells the
	// agent the connection's codec.
	welcome := &Message{Kind: KindWelcome, ID: hello.ID, Token: token, Codec: cc.codec.Name()}
	if err := cc.send(jsonCodec{}, welcome); err != nil {
		c.markDark(cc)
		return
	}
	if resume {
		obs.Default().Counter(obs.MetricNetResumesTotal, obs.LabelSide, obs.SideCenter).Inc()
		if rec := obs.DefaultRecorder(); rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.EventResume, Shard: -1, Action: obs.SideCenter, N: int(hello.ID)})
		}
		for _, m := range replay {
			if err := cc.send(cc.codec, m); err != nil {
				c.markDark(cc)
				return
			}
			obs.Default().Counter(obs.MetricNetReplaysTotal).Inc()
		}
		if rec := obs.DefaultRecorder(); rec.Enabled() && len(replay) > 0 {
			rec.Record(obs.Event{Kind: obs.EventReplay, Shard: -1, N: len(replay)})
		}
	}
	select {
	case c.joined <- struct{}{}:
	default:
	}

	for {
		m, err := fr.next()
		if err != nil {
			c.markDark(cc)
			select {
			case c.inbox <- inbound{id: cc.id, conn: cc, err: err}:
			case <-c.closing:
			}
			return
		}
		select {
		case c.inbox <- inbound{id: cc.id, conn: cc, msg: m}:
		case <-c.closing:
			return
		}
	}
}

// refuse answers a hello with a registration error, in JSON like the
// welcome it replaces, and closes the connection. The error bypasses the
// fault injector: a refused connection never reaches message index 0.
func refuse(conn net.Conn, id core.HouseholdID, reason string) {
	_ = WriteBatch(conn, jsonCodec{}, []*Message{{Kind: KindError, ID: id, Err: reason}})
	conn.Close()
}

// track adds an accepted connection to the set Close shuts, or closes
// it and reports false when the center is already closing.
func (c *Center) track(conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closing:
		conn.Close()
		return false
	default:
		c.conns[conn] = struct{}{}
		return true
	}
}

func (c *Center) untrack(conn net.Conn) {
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
}

// markDark closes cc and detaches it from its session (if cc is still
// the session's current connection). The session itself survives so the
// agent can resume and the day can settle degraded.
func (c *Center) markDark(cc *centerConn) {
	cc.conn.Close()
	c.mu.Lock()
	detached := false
	if s := c.sessions[cc.id]; s != nil && s.conn == cc {
		s.conn = nil
		detached = true
	}
	c.mu.Unlock()
	if rec := obs.DefaultRecorder(); detached && rec.Enabled() {
		rec.Record(obs.Event{Kind: obs.EventDark, Shard: -1, N: int(cc.id)})
	}
}

// currentConn returns the live connection registered for id, or nil.
func (c *Center) currentConn(id core.HouseholdID) *centerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.sessions[id]; s != nil {
		return s.conn
	}
	return nil
}

// clearLastOut discards the pending replay message once the household
// has answered it.
func (c *Center) clearLastOut(id core.HouseholdID) {
	c.mu.Lock()
	if s := c.sessions[id]; s != nil {
		s.lastOut = nil
	}
	c.mu.Unlock()
}

// RunDayContext drives one full day cycle of a fresh settle.Machine
// over the current neighborhood members (see dayRun.run): request →
// preferences → allocation → consumptions → payments. It is not safe
// for concurrent use with itself.
//
// The center only moves messages into and out of the machine and
// commits what it decides. The day degrades rather than fails when
// households go dark: a member that never reports is absent; one that
// reports and then vanishes past the consumption deadline is on the
// machine's dark set, settled as a defector from its committed report.
// Protocol violations from live agents (malformed frames, out-of-phase
// messages, inputs the machine rejects) still fail the day, and the
// operator plane shows it failed.
//
// A failover leader replays the day's committed phase inputs into the
// machine instead of collecting those phases again, so the day settles
// from exactly the inputs a majority can reproduce; a day the takeover
// log holds as settled is not committed again, only paid.
//
// The whole day is one trace: a root day span (trace ID derived from
// TraceSeed and the day number) with one child span per protocol phase,
// and the phase span's context rides on every outgoing message so the
// agents' spans join the same trace across the process boundary.
func (c *Center) RunDayContext(ctx context.Context, day int) (*DayRecord, error) {
	start := time.Now()
	tid := obs.DeriveTraceID(c.cfg.TraceSeed, uint64(day))
	daySpan := obs.DefaultTracer().StartTrace(tid, obs.SpanNetDay, "day", strconv.Itoa(day))
	defer daySpan.End()

	members := c.memberIDs()
	if len(members) == 0 {
		return nil, errors.New("netproto: no registered agents")
	}
	if _, ok := c.committed[phaseKey{day, phaseConsumption}]; ok {
		c.stat.setPhase("settling") // a takeover settles straight from its log
	}
	d := dayRun{cfg: c.cfg.Config, day: day, traceID: tid, root: daySpan,
		legs: tcpLegs{c, day, tid}, commit: c.commit, log: c.committed}
	out, err := d.run(ctx, members)
	if err != nil {
		err = fmt.Errorf("netproto: day %d: %w", day, err)
		c.stat.closeDay(start, obs.ShardStatus{TraceID: tid, LastDay: day, Households: len(members), Err: err.Error()}, 0, nil, tid)
		return nil, err
	}
	row := out.Status
	obs.Default().Counter(obs.MetricNetDaysTotal).Inc()
	if row.Absent+row.Substituted > 0 {
		obs.Default().Counter(obs.MetricNetDegradedDaysTotal).Inc()
		if row.Substituted > 0 {
			obs.Default().Counter(obs.MetricNetSubstitutionsTotal).Add(uint64(row.Substituted))
		}
	}
	c.stat.closeDay(start, row, out.Record.Peak, nil, tid)
	return out.Record, nil
}

// tcpLegs are a center's legs: each household's message goes over its
// session, waits there for a resume while the household is dark, and
// the replies are collected under the phase deadline.
type tcpLegs struct {
	c   *Center
	day int
	tid string
}

func (l tcpLegs) exchange(ctx context.Context, span *obs.ActiveSpan, members []core.HouseholdID, assignments []core.Assignment) ([]*Message, error) {
	c, want := l.c, KindPreference
	if assignments != nil {
		want = KindConsumption
		members = make([]core.HouseholdID, len(assignments))
		for i, a := range assignments {
			members[i] = a.ID
		}
	}
	c.stat.startPhase(l.day, string(want), len(members), c.cfg.PhaseDeadline)
	if rec := obs.DefaultRecorder(); rec.Enabled() {
		rec.Record(obs.Event{Kind: obs.EventPhase, Day: l.day, Shard: -1, Phase: string(want), Action: "start", N: len(members)})
	}
	tc := wireTrace(l.tid, span)
	for i, id := range members {
		m := &Message{Kind: KindRequest, ID: id, Day: l.day, Trace: tc}
		if assignments != nil {
			iv := assignments[i].Interval
			m.Kind, m.Interval = KindAllocation, &iv
		}
		c.mu.Lock()
		s := c.sessions[id]
		var cc *centerConn
		if s != nil {
			s.lastOut = m // replayed if the household resumes mid-phase
			cc = s.conn
		}
		c.mu.Unlock()
		if cc == nil {
			continue // dark; the message waits on the session for a resume
		}
		if err := cc.send(cc.codec, m); err != nil {
			c.markDark(cc)
		}
	}
	got, err := c.collect(ctx, members, want, l.day)
	if want == KindConsumption {
		c.stat.setPhase("settling")
	}
	return got, err
}

// deliver sends every household its payment notice. It never fails: a
// dark household's payment waits on its session.
func (l tcpLegs) deliver(span *obs.ActiveSpan, out *settle.Outcome) error {
	tc := wireTrace(l.tid, span)
	for i, r := range out.Record.Reports {
		notice := out.Record.Notice(i)
		l.c.deliverPayment(&Message{Kind: KindPayment, ID: r.ID, Day: l.day, Payment: &notice, Trace: tc})
	}
	return nil
}

// deliverPayment sends a settlement best-effort: a dark household's
// payment is queued on its session and replayed when it resumes. A
// payment can never fail the day — the ledger already holds the
// authoritative record.
func (c *Center) deliverPayment(m *Message) {
	c.mu.Lock()
	s := c.sessions[m.ID]
	if s == nil {
		c.mu.Unlock()
		return
	}
	cc := s.conn
	if cc == nil {
		s.missedPay = append(s.missedPay, m)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	if err := cc.send(cc.codec, m); err != nil {
		c.markDark(cc)
		c.mu.Lock()
		if c.sessions[m.ID] == s {
			s.missedPay = append(s.missedPay, m)
		}
		c.mu.Unlock()
	}
}

// wireTrace builds the trace context stamped on outgoing messages: the
// day's deterministic trace ID always travels (the ledger links through
// it even with tracing off), the parent span ID only when a span is
// being recorded.
func wireTrace(tid string, span *obs.ActiveSpan) *obs.TraceContext {
	return &obs.TraceContext{TraceID: tid, SpanID: span.ID()}
}

// memberIDs returns every neighborhood member — live or dark — sorted
// by household ID. Dark members stay members: they may resume mid-day,
// and until then each day settles around them.
func (c *Center) memberIDs() []core.HouseholdID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.HouseholdID, 0, len(c.sessions))
	for id := range c.sessions {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// earlierReply reports whether kind is the reply of a phase that
// precedes the want phase within the same day — a late or duplicated
// answer to a round the center has already closed, which resume replays
// and FaultDup can legitimately produce and the collector must ignore.
func earlierReply(kind, want Kind) bool {
	return want == KindConsumption && kind == KindPreference
}

// collect waits until every member (sorted by ID) has sent a message of
// the wanted kind for the given day, or the phase deadline expires —
// whichever comes first. It returns the replies aligned with members;
// members dark at the deadline keep a nil reply rather than failing the
// day, and a disconnect mid-phase keeps the member pending until the
// deadline so a resuming agent can still answer. Wrong-kind or
// future-day messages from live agents are protocol violations and
// error the day.
func (c *Center) collect(ctx context.Context, members []core.HouseholdID, want Kind, day int) ([]*Message, error) {
	start := time.Now()
	defer func() {
		obs.Default().Histogram(obs.MetricNetPhaseLatencyMS, obs.LatencyBucketsMS, obs.LabelPhase, string(want)).Observe(sinceMS(start))
	}()
	deadlineHist := obs.Default().Histogram(obs.MetricNetPhaseDeadlineRemainingMS, obs.LatencyBucketsMS, obs.LabelPhase, string(want))

	got := make([]*Message, len(members))
	pending := len(members)
	timer := time.NewTimer(c.cfg.PhaseDeadline)
	defer timer.Stop()

	for pending > 0 {
		select {
		case in := <-c.inbox:
			if c.currentConn(in.id) != in.conn {
				// Stale event from a connection that has been replaced
				// (reconnect) or already marked dark: ignore it.
				continue
			}
			if in.err != nil {
				// The connection died; handleConn already marked the
				// session dark. Keep the member pending — it may resume
				// and answer before the deadline.
				continue
			}
			m := in.msg
			switch {
			case m.Kind == KindMetricsReport:
				// Federated snapshots are cumulative, so day skew is
				// harmless; merge (when reporting is on) and move on.
				if c.fed != nil {
					c.fed.Report(m.Metrics)
				}
				continue
			case m.Day < day:
				continue // stale reply from a previous day's replay
			case m.Day == day && m.Kind == want:
				i := sort.Search(len(members), func(i int) bool { return members[i] >= in.id })
				if i == len(members) || members[i] != in.id || got[i] != nil {
					continue // not asked this phase, or a duplicate delivery (FaultDup or replay overlap)
				}
				got[i] = m
				pending--
				c.clearLastOut(in.id)
				c.stat.noteReported()
			case m.Day == day && earlierReply(m.Kind, want):
				continue // late answer to an already-closed round
			default:
				return nil, fmt.Errorf("unexpected %s(day %d) from %d during %s phase", m.Kind, m.Day, in.id, want)
			}
		case <-timer.C:
			obs.Default().Counter(obs.MetricNetTimeoutsTotal, obs.LabelPhase, string(want)).Inc()
			deadlineHist.Observe(0)
			c.stat.noteDark(pending)
			if rec := obs.DefaultRecorder(); rec.Enabled() {
				rec.Record(obs.Event{Kind: obs.EventPhase, Day: day, Shard: -1, Phase: string(want), Action: "deadline", N: pending})
			}
			return got, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("%s phase: %w", want, ctx.Err())
		case <-c.closing:
			return nil, errors.New("center closed")
		}
	}
	if remaining := c.cfg.PhaseDeadline - time.Since(start); remaining > 0 {
		deadlineHist.Observe(float64(remaining.Nanoseconds()) / 1e6)
	}
	return got, nil
}
