package netproto

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"enki/internal/obs"
	"enki/internal/replica"
	"enki/internal/settle"
)

// errReplicaKilled marks a day that failed because the leader replica
// was killed mid-phase; the ReplicaSet fails over and re-runs the day
// instead of surfacing it.
var errReplicaKilled = errors.New("netproto: leader replica killed")

// replicaNode is one member of the quorum set: its copy of the log and
// its peer listener. The log is all a replica holds: its committed day
// entries are its audit ledger (see ReplicaSet.ReplicaLedger). Exactly
// one live node also runs the agent-facing Center; followers hold no
// agent state at all — failover rebuilds it from the committed log.
type replicaNode struct {
	id       int
	log      *replica.Log
	peerLn   net.Listener
	peerAddr string
	peerConn net.Conn // leader-side client conn; guarded by ReplicaSet.repMu
	alive    bool     // guarded by ReplicaSet.mu
	center   *Center  // non-nil only while this node leads; guarded by ReplicaSet.mu
}

// ReplicaSet is a settlement center replicated across 2f+1 nodes with a
// quorum journal. The leader runs the ordinary Center protocol with the
// agents, and the set is the leader's commit path (see committer):
// every durable decision — memberships, phase inputs, settled days — is
// replicated to the followers and commits once a majority holds it.
// When the leader dies the lowest live replica takes over mid-day: it
// adopts the longest log among the survivors, re-replicates the
// uncommitted tail, and hands the committed log to a new Center, which
// rebuilds its session table from the member entries and replays the
// in-flight day's committed inputs through the day driver; a day whose
// day entry committed is settled again only to redeliver its payments.
// Agents reconnect with their session tokens exactly as after a link
// cut, so the failover run settles to the same ledger bytes as a
// fault-free one.
//
// The set has one operator plane, embedded like a center's: every
// leader it starts reports into the same status table, federation and
// SLO engine, so the operator view outlives a takeover. The plane's
// ledger is the caller's WithLedger journal, written exactly once per
// committed day no matter how many takeovers the day survived.
type ReplicaSet struct {
	n             int
	quorumTimeout time.Duration
	baseCfg       centerConfig // every leader Center's configuration
	nodes         []*replicaNode

	*operatorPlane

	mu        sync.Mutex
	leaderID  int
	term      uint64
	failovers uint64

	repMu sync.Mutex // serializes replication rounds and takeovers
	// applied is the highest log index applied to the plane's ledger;
	// guarded by repMu.
	applied uint64

	// killAt is the chaos hook: called at every named kill point; a
	// true return kills the current leader at that point.
	killAt func(point string, day int, phase string) bool
}

// StartReplicaSet starts a quorum-replicated settlement center:
// WithReplicas(n) nodes (n odd, default 3), node 0 leading first.
// Settlement and operator options (WithScheduler, WithPricer,
// WithTraceSeed, WithSLO, ...) configure the leader center exactly as
// they would StartCenter; WithLedger names the merged audit journal.
func StartReplicaSet(ctx context.Context, opts ...Option) (*ReplicaSet, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	if err := o.validate("StartReplicaSet", targetReplica); err != nil {
		return nil, err
	}
	rc := o.replica
	if rc.n < 1 || rc.n%2 == 0 {
		return nil, fmt.Errorf("netproto: replica count %d must be odd (2f+1)", rc.n)
	}

	cfg := o.resolveCenter()
	plane, err := newOperatorPlane(cfg)
	if err != nil {
		return nil, err
	}
	// The plane's ledger is written once per committed day, from the day
	// entry's ledger line; the leader center itself never appends.
	cfg.Ledger = nil
	rs := &ReplicaSet{
		n:             rc.n,
		quorumTimeout: rc.quorumTimeout,
		baseCfg:       cfg,
		operatorPlane: plane,
		term:          1,
	}

	for id := 0; id < rc.n; id++ {
		n := &replicaNode{id: id, log: replica.NewLog(), alive: true}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rs.Close()
			return nil, fmt.Errorf("netproto: replica %d peer listener: %w", id, err)
		}
		n.peerLn = ln
		n.peerAddr = ln.Addr().String()
		go n.serve()
		rs.nodes = append(rs.nodes, n)
	}

	c, err := rs.startLeaderCenter(rs.nodes[0], nil)
	if err != nil {
		rs.Close()
		return nil, err
	}
	rs.mu.Lock()
	rs.nodes[0].center = c
	rs.mu.Unlock()
	rs.publishMetrics()
	return rs, nil
}

// startLeaderCenter builds an agent-facing Center for node n on a fresh
// listener, committing through the set and taking over the committed
// log (nil at start-up).
func (rs *ReplicaSet) startLeaderCenter(n *replicaNode, log []replica.Entry) (*Center, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netproto: replica %d agent listener: %w", n.id, err)
	}
	c, err := newCenter(ln, rs.baseCfg, rs.operatorPlane, rs, log)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return c, nil
}

// serve accepts peer connections for one replica and handles the
// append/commit/sync protocol on each.
func (n *replicaNode) serve() {
	for {
		conn, err := n.peerLn.Accept()
		if err != nil {
			return
		}
		go n.serveConn(conn)
	}
}

func (n *replicaNode) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		m, err := replica.ReadMessage(conn)
		if err != nil {
			return
		}
		if err := replica.WriteMessage(conn, n.handle(m)); err != nil {
			return
		}
	}
}

// handle processes one peer frame on the follower side.
func (n *replicaNode) handle(m *replica.Message) *replica.Message {
	switch m.Kind {
	case replica.MsgAppend:
		if !n.log.ObserveTerm(m.Term) {
			return &replica.Message{Kind: replica.MsgAck, From: n.id, Reason: "not leader", LastIndex: n.log.LastIndex()}
		}
		insert := func(e replica.Entry) *replica.Message {
			if err := n.log.Insert(e); err != nil {
				reason := "conflict"
				if errors.Is(err, replica.ErrGap) {
					reason = "gap"
				}
				return &replica.Message{Kind: replica.MsgAck, From: n.id, Reason: reason, LastIndex: n.log.LastIndex()}
			}
			return nil
		}
		if m.Entry != nil {
			if rej := insert(*m.Entry); rej != nil {
				return rej
			}
		}
		for _, e := range m.Entries {
			if rej := insert(e); rej != nil {
				return rej
			}
		}
		return &replica.Message{Kind: replica.MsgAck, From: n.id, OK: true, LastIndex: n.log.LastIndex()}
	case replica.MsgCommit:
		if !n.log.ObserveTerm(m.Term) {
			return &replica.Message{Kind: replica.MsgAck, From: n.id, Reason: "not leader", LastIndex: n.log.LastIndex()}
		}
		n.log.CommitTo(m.Commit)
		return &replica.Message{Kind: replica.MsgAck, From: n.id, OK: true, Commit: n.log.Commit()}
	case replica.MsgSync:
		return &replica.Message{Kind: replica.MsgLog, From: n.id, Commit: n.log.Commit(), Entries: n.log.Entries()}
	default:
		return &replica.Message{Kind: replica.MsgAck, From: n.id, Reason: "unknown kind " + m.Kind}
	}
}

// The committer implementation: every leader Center this set starts
// commits through these, each blocking until a majority holds the
// entry. The chaos kill points sit at the same commit boundaries.

func (rs *ReplicaSet) commitMember(m memberPayload) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return rs.replicate(replica.KindMember, 0, "", data, "")
}

func (rs *ReplicaSet) commitPhase(day int, phase string, payload any) error {
	if rs.fireKill(phase, day, phase) {
		return errReplicaKilled
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("netproto: encode %s phase: %w", phase, err)
	}
	return rs.replicate(replica.KindPhase, day, phase, data, "")
}

func (rs *ReplicaSet) commitDay(out *settle.Outcome) error {
	day := out.Record.Day
	if rs.fireKill("settle", day, "settle") {
		return errReplicaKilled
	}
	// The entry is the day's ledger line: the bytes every ledger writes,
	// and all a takeover needs to know the day settled. The log keeps its
	// own copy of the line, with room for the newline a ledger write
	// appends (applyCommitted).
	entry := out.LedgerEntry()
	line, err := ledgerLine(&entry)
	if err != nil {
		return err
	}
	n := len(*line) - 1
	data := append(make([]byte, 0, n+1), (*line)[:n]...)
	ledgerBufs.Put(line)
	if err := rs.replicate(replica.KindDay, day, phaseDay, data, "beforeCommit"); err != nil {
		return err
	}
	if rs.fireKill("payment", day, "payment") {
		return errReplicaKilled
	}
	return nil
}

// fireKill consults the chaos hook; a true return kills the current
// leader and reports that the caller should abort the day.
func (rs *ReplicaSet) fireKill(point string, day int, phase string) bool {
	rs.mu.Lock()
	hook := rs.killAt
	leader := rs.leaderID
	rs.mu.Unlock()
	if hook == nil || !hook(point, day, phase) {
		return false
	}
	_ = rs.Kill(leader)
	return true
}

// replicate appends one entry to the leader's log and runs its quorum
// round.
func (rs *ReplicaSet) replicate(kind string, day int, phase string, data json.RawMessage, killPoint string) error {
	rs.repMu.Lock()
	defer rs.repMu.Unlock()

	rs.mu.Lock()
	leader := rs.nodes[rs.leaderID]
	term := rs.term
	if !leader.alive {
		rs.mu.Unlock()
		return fmt.Errorf("netproto: replicate %s: %w", kind, ErrNotLeader)
	}
	rs.mu.Unlock()

	if err := rs.round(leader, term, leader.log.Append(term, uint64(day), kind, phase, data), killPoint); err != nil {
		return err
	}
	rs.publishMetrics()
	return nil
}

// round is the one quorum round, for a new entry and for a takeover's
// uncommitted tail alike: ask each live follower once to append e,
// count the acks (the leader's own included), fire killPoint, and —
// once a majority holds e — commit and apply it on the leader and raise
// every follower's commit watermark. killPoint "beforeCommit" is the
// chaos window between a full quorum of acks and the leader's commit:
// the entry survives on the followers and the next leader finishes the
// job. Callers hold repMu.
func (rs *ReplicaSet) round(leader *replicaNode, term uint64, e replica.Entry, killPoint string) error {
	acks := 1
	for _, f := range rs.livePeers(leader.id) {
		if rs.appendTo(leader, f, term, e) {
			acks++
		}
	}
	if killPoint != "" && rs.fireKill(killPoint, e.Day, e.Phase) {
		return errReplicaKilled
	}
	if acks < replica.Majority(rs.n) {
		return fmt.Errorf("netproto: replicate %s day %d: %d/%d acks: %w", e.Kind, e.Day, acks, rs.n, ErrQuorumLost)
	}
	err := rs.applyCommitted(leader.log.CommitTo(e.Index))
	for _, f := range rs.livePeers(leader.id) {
		// Best-effort: a missed commit is repaired by the next round's
		// cumulative watermark or by the next takeover's sync.
		_, _ = rs.call(f, &replica.Message{Kind: replica.MsgCommit, Term: term, Commit: e.Index})
	}
	return err
}

// appendTo pushes one entry from leader to follower f, repairing log
// gaps with a suffix resend. It reports whether the follower acked.
func (rs *ReplicaSet) appendTo(leader, f *replicaNode, term uint64, e replica.Entry) bool {
	reply, err := rs.call(f, &replica.Message{Kind: replica.MsgAppend, Term: term, Entry: &e})
	if err != nil {
		return false
	}
	if !reply.OK && reply.Reason == "gap" {
		reply, err = rs.call(f, &replica.Message{Kind: replica.MsgAppend, Term: term, Entries: leader.log.Suffix(reply.LastIndex)})
		if err != nil {
			return false
		}
	}
	return reply.OK
}

// call sends one frame to a follower's peer listener and reads the
// reply, redialing a stale connection once. Callers hold repMu, which
// guards the per-node client connection.
func (rs *ReplicaSet) call(f *replicaNode, m *replica.Message) (*replica.Message, error) {
	deadline := time.Now().Add(rs.quorumTimeout)
	for attempt := 0; attempt < 2; attempt++ {
		if f.peerConn == nil {
			conn, err := net.DialTimeout("tcp", f.peerAddr, rs.quorumTimeout)
			if err != nil {
				return nil, err
			}
			f.peerConn = conn
		}
		_ = f.peerConn.SetDeadline(deadline)
		if err := replica.WriteMessage(f.peerConn, m); err != nil {
			f.peerConn.Close()
			f.peerConn = nil
			continue
		}
		reply, err := replica.ReadMessage(f.peerConn)
		if err != nil {
			f.peerConn.Close()
			f.peerConn = nil
			continue
		}
		return reply, nil
	}
	return nil, fmt.Errorf("netproto: replica %d unreachable", f.id)
}

// applyCommitted appends the ledger line of each newly committed day
// entry to the plane's ledger, exactly once however many takeovers
// intervene: every replica's committed prefix holds the same entries at
// the same indices, so an entry at or below the applied watermark — one
// a new leader commits again on its own log — was applied already.
//
// A failed write fails the day, as it does a center's and a cluster's:
// the error wraps "netproto: audit ledger", and nothing after the
// failed line is applied, so the ledger keeps the lines before it.
// Every replica's log still holds the day (see ReplicaLedger). The
// ledger's tail keeps the committed line by alias, since the log keeps
// it anyway. Callers hold repMu.
func (rs *ReplicaSet) applyCommitted(newly []replica.Entry) error {
	for _, e := range newly {
		if e.Index <= rs.applied {
			continue
		}
		rs.applied = e.Index
		if e.Kind == replica.KindDay && rs.ledger != nil {
			if err := rs.ledger.writeLine(append(e.Data, '\n'), true); err != nil {
				return fmt.Errorf("netproto: audit ledger: %w", err)
			}
		}
	}
	return nil
}

func (rs *ReplicaSet) livePeers(leaderID int) []*replicaNode {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []*replicaNode
	for _, n := range rs.nodes {
		if n.id != leaderID && n.alive {
			out = append(out, n)
		}
	}
	return out
}

// Kill marks a replica dead: its listeners close, its connections drop,
// and it never returns. Killing the leader mid-day is the failover
// path — the next leader-needing call elects the lowest live replica
// and resumes from the replicated journal. Kill never blocks on
// replication state, so chaos hooks may call it from inside a round.
func (rs *ReplicaSet) Kill(id int) error {
	if id < 0 || id >= rs.n {
		return fmt.Errorf("netproto: replica %d out of range [0, %d)", id, rs.n)
	}
	rs.mu.Lock()
	n := rs.nodes[id]
	if !n.alive {
		rs.mu.Unlock()
		return nil
	}
	n.alive = false
	c := n.center
	n.center = nil
	rs.mu.Unlock()
	n.peerLn.Close()
	if c != nil {
		// Close asynchronously: Close waits for connection handlers,
		// which may themselves be blocked inside a replication round.
		go c.Close()
	}
	rs.publishMetrics()
	return nil
}

// liveCenter returns the live leader's Center, or nil while the leader
// is dead.
func (rs *ReplicaSet) liveCenter() *Center {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if n := rs.nodes[rs.leaderID]; n.alive {
		return n.center
	}
	return nil
}

// leaderCenter returns the live leader's Center, electing and promoting
// a new leader first if the current one is dead.
func (rs *ReplicaSet) leaderCenter() (*Center, error) {
	if c := rs.liveCenter(); c != nil {
		return c, nil
	}
	return rs.takeOver()
}

// takeOver promotes the lowest live replica: sync the survivors' logs,
// adopt the longest, commit everything a majority already held,
// re-replicate the uncommitted tail under the original entry terms, and
// hand the committed log to a new agent-facing Center.
func (rs *ReplicaSet) takeOver() (*Center, error) {
	rs.repMu.Lock()
	defer rs.repMu.Unlock()

	rs.mu.Lock()
	if n := rs.nodes[rs.leaderID]; n.alive && n.center != nil {
		c := n.center
		rs.mu.Unlock()
		return c, nil // another caller already completed the takeover
	}
	var live []int
	for _, n := range rs.nodes {
		if n.alive {
			live = append(live, n.id)
		}
	}
	if len(live) < replica.Majority(rs.n) {
		rs.mu.Unlock()
		return nil, fmt.Errorf("netproto: %d/%d replicas live: %w", len(live), rs.n, ErrQuorumLost)
	}
	id := replica.Elect(live)
	term := rs.term + 1
	rs.mu.Unlock()

	leader := rs.nodes[id]
	leader.log.ObserveTerm(term)

	// Adopt the longest log among the survivors and the highest commit
	// watermark a majority already reached.
	maxCommit := leader.log.Commit()
	for _, f := range rs.livePeers(id) {
		reply, err := rs.call(f, &replica.Message{Kind: replica.MsgSync, Term: term})
		if err != nil || reply.Kind != replica.MsgLog {
			continue
		}
		if reply.Commit > maxCommit {
			maxCommit = reply.Commit
		}
		if uint64(len(reply.Entries)) > leader.log.LastIndex() {
			if err := leader.log.Adopt(reply.Entries); err != nil {
				return nil, fmt.Errorf("netproto: takeover adopt from replica %d: %w", f.id, err)
			}
		}
	}
	if err := rs.applyCommitted(leader.log.CommitTo(maxCommit)); err != nil {
		return nil, err
	}

	// Finish what the dead leader started: any entry a quorum acked but
	// never committed is re-replicated (original terms) and committed.
	for _, e := range leader.log.Suffix(leader.log.Commit()) {
		if err := rs.round(leader, term, e, ""); err != nil {
			return nil, err
		}
	}

	// The new Center rebuilds the agent-facing state from the committed
	// log: sessions from member entries, the in-flight day from its
	// committed phase inputs.
	c, err := rs.startLeaderCenter(leader, leader.log.Entries())
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	leader.center = c
	rs.leaderID = id
	rs.term = term
	rs.failovers++
	rs.mu.Unlock()
	obs.Default().Counter(obs.MetricReplicaFailoversTotal).Inc()
	rs.publishMetrics()
	return c, nil
}

// RunDayContext runs one settlement day against the replica set. Like
// Center.RunDayContext it runs each day once: exactly-once settlement is
// a guarantee across failovers, not across calls. A day interrupted by a
// leader death is re-run on the next leader through the one day driver,
// which replays the day's committed phase inputs; a day whose day entry
// already committed settles again from those inputs to the identical
// record, commits nothing, and only redelivers its payments (agents
// dedupe by day).
func (rs *ReplicaSet) RunDayContext(ctx context.Context, day int) (*DayRecord, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := rs.leaderCenter()
		if err != nil {
			return nil, err
		}
		rec, err := c.RunDayContext(ctx, day)
		if err != nil {
			if errors.Is(err, errReplicaKilled) || rs.leaderDead(c) {
				continue // fail over and resume the day
			}
			return nil, err
		}
		return rec, nil
	}
}

// leaderDead reports whether c is no longer the live leader's center.
func (rs *ReplicaSet) leaderDead(c *Center) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := rs.nodes[rs.leaderID]
	return !n.alive || n.center != c
}

// WaitForAgentsContext blocks until n agents are connected to the
// current leader, following a failover if the leader dies while
// waiting.
func (rs *ReplicaSet) WaitForAgentsContext(ctx context.Context, n int) error {
	for {
		c, err := rs.leaderCenter()
		if err != nil {
			return err
		}
		err = c.WaitForAgentsContext(ctx, n)
		if err != nil && ctx.Err() == nil && rs.leaderDead(c) {
			continue
		}
		return err
	}
}

// AgentCount returns the number of households with a live connection
// to the current leader.
func (rs *ReplicaSet) AgentCount() int {
	if c := rs.liveCenter(); c != nil {
		return c.AgentCount()
	}
	return 0
}

// Addr returns the current leader's agent-facing address. Prefer
// Dialer for agents: the address moves on failover.
func (rs *ReplicaSet) Addr() string {
	if c := rs.liveCenter(); c != nil {
		return c.Addr()
	}
	return ""
}

// Dialer returns a DialFunc that always dials the current leader, for
// Connect's WithDialer: an agent that retries through a failover lands
// on the new leader and resumes its session there.
func (rs *ReplicaSet) Dialer() DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		addr := rs.Addr()
		if addr == "" {
			return nil, fmt.Errorf("netproto: no live leader: %w", ErrQuorumLost)
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// Leader returns the current leader's replica ID.
func (rs *ReplicaSet) Leader() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.leaderID
}

// Term returns the current leadership term (1 at start, +1 per
// takeover).
func (rs *ReplicaSet) Term() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.term
}

// Failovers returns how many takeovers the set has performed.
func (rs *ReplicaSet) Failovers() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.failovers
}

// ReplicaLedger returns replica id's audit ledger: the ledger line of
// every day entry in its committed prefix, one per line — the bytes the
// set's WithLedger journal holds for the same days.
func (rs *ReplicaSet) ReplicaLedger(id int) []byte {
	if id < 0 || id >= rs.n {
		return nil
	}
	log := rs.nodes[id].log
	// The watermark first: entries never shrink, so the copy holds it.
	commit := log.Commit()
	var out []byte
	for _, e := range log.Entries()[:commit] {
		if e.Kind == replica.KindDay {
			out = append(append(out, e.Data...), '\n')
		}
	}
	return out
}

// ReplicaStatuses implements obs.ReplicaSource for /api/v1/replicas.
func (rs *ReplicaSet) ReplicaStatuses() obs.ReplicaSetStatus {
	rs.mu.Lock()
	leaderID := rs.leaderID
	term := rs.term
	failovers := rs.failovers
	rs.mu.Unlock()
	st := obs.ReplicaSetStatus{Leader: -1, Term: term, Failovers: failovers}
	liveCount := 0
	for _, n := range rs.nodes {
		rs.mu.Lock()
		alive := n.alive
		center := n.center
		rs.mu.Unlock()
		r := obs.ReplicaStatus{
			ID:          n.id,
			Term:        n.log.Term(),
			CommitIndex: n.log.Commit(),
			CommitLag:   n.log.LastIndex() - n.log.Commit(),
			Addr:        n.peerAddr,
		}
		switch {
		case !alive:
			r.Role = "dead"
		case n.id == leaderID && center != nil:
			r.Role = "leader"
			r.Addr = center.Addr()
			st.Leader = n.id
		default:
			r.Role = "follower"
		}
		if alive {
			liveCount++
		}
		st.Replicas = append(st.Replicas, r)
	}
	st.Quorum = liveCount >= replica.Majority(rs.n)
	return st
}

// Operator returns the set's operator plane — the one every leader
// reports into, served as a center's is — plus replica health at
// /api/v1/replicas.
func (rs *ReplicaSet) Operator() *obs.Operator {
	op := rs.operatorPlane.Operator()
	op.Replicas = rs
	return op
}

// publishMetrics refreshes the per-replica gauges from ReplicaStatuses.
// Every value is a pure function of the replicated log and the kill
// schedule, keeping the series inside the determinism contract.
func (rs *ReplicaSet) publishMetrics() {
	reg := obs.Default()
	for _, r := range rs.ReplicaStatuses().Replicas {
		label := strconv.Itoa(r.ID)
		role := 0.0
		if r.Role == "leader" {
			role = 1
		}
		reg.Gauge(obs.MetricReplicaRole, obs.LabelReplica, label).Set(role)
		reg.Gauge(obs.MetricReplicaTerm, obs.LabelReplica, label).Set(float64(r.Term))
		reg.Gauge(obs.MetricReplicaCommitLag, obs.LabelReplica, label).Set(float64(r.CommitLag))
	}
}

// Close shuts down every replica: centers, peer listeners, and client
// connections.
func (rs *ReplicaSet) Close() error {
	for _, n := range rs.nodes {
		rs.mu.Lock()
		c := n.center
		n.center = nil
		n.alive = false
		rs.mu.Unlock()
		if n.peerLn != nil {
			n.peerLn.Close()
		}
		if c != nil {
			c.Close()
		}
		rs.repMu.Lock()
		if n.peerConn != nil {
			n.peerConn.Close()
			n.peerConn = nil
		}
		rs.repMu.Unlock()
	}
	return nil
}
