package netproto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/obs"
)

// Policy is a household agent's decision logic — the ECC unit of the
// paper: it decides what preference to report for a day and how to
// consume given an allocation, and observes the resulting settlement.
type Policy interface {
	// Report returns the preference χ̂ to declare for the day.
	Report(day int) core.Preference
	// Consume returns the realized consumption ω given the center's
	// allocation. It must have the reported duration.
	Consume(day int, allocation core.Interval) core.Interval
	// Feedback delivers the settlement for a completed day.
	Feedback(day int, detail PaymentDetail)
}

// Truthful is the prosocial policy: report the true preference and
// follow the allocation exactly.
type Truthful struct {
	// Type is the household's private type.
	Type core.Type
}

var _ Policy = (*Truthful)(nil)

// Report implements Policy.
func (p *Truthful) Report(int) core.Preference { return p.Type.True }

// Consume implements Policy.
func (p *Truthful) Consume(_ int, allocation core.Interval) core.Interval { return allocation }

// Feedback implements Policy.
func (p *Truthful) Feedback(int, PaymentDetail) {}

// Misreporter widens or shifts its reported window but consumes inside
// its true window, defecting whenever the allocation misses its true
// preference — the Section V-B scenario.
type Misreporter struct {
	// Type is the household's private type.
	Type core.Type
	// Reported is the misreported preference (same duration).
	Reported core.Preference
}

var _ Policy = (*Misreporter)(nil)

// Report implements Policy.
func (p *Misreporter) Report(int) core.Preference { return p.Reported }

// Consume implements Policy: follow the allocation when it satisfies
// the true preference, otherwise defect to the closest true-window
// placement.
func (p *Misreporter) Consume(_ int, allocation core.Interval) core.Interval {
	return core.ClosestConsumption(p.Type.True, allocation)
}

// Feedback implements Policy.
func (p *Misreporter) Feedback(int, PaymentDetail) {}

// Agent is a household ECC client connected to a neighborhood center.
// It answers the center's protocol messages using its Policy. Create
// with Connect; stop with Close, which closes the connection and waits
// for the message loop to exit.
//
// With a retry policy (WithRetryPolicy), a link failure triggers
// bounded redials with exponential backoff and deterministic seeded
// jitter; each successful redial resumes the prior session by token,
// and the center replays whatever phase messages were missed. Without
// one, the first failure is terminal (the historical behaviour).
type Agent struct {
	id     core.HouseholdID
	policy Policy
	cfg    agentConfig
	inj    *faultInjector // indices persist across reconnects
	jitter *dist.RNG      // retry jitter stream, split per household
	reg    *obs.Registry  // per-agent metrics, piggybacked when reporting
	src    string         // federation source key ("agent/<id>")

	mu      sync.Mutex
	conn    net.Conn
	codec   Codec        // selected by the current connection's welcome
	fr      *frameReader // reads the current connection
	token   string       // session-resumption credential from the welcome
	history []PaymentDetail
	paid    map[int]bool // days already settled; dedupes replayed payments
	err     error
	closed  bool // Close was called; suppress the resulting read error

	// ctx bounds the reconnect path's waits, redials and handshakes;
	// Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once
}

// Connect dials a center, registers the household, and starts the
// agent's message loop. The context bounds the initial dial and
// handshake only; use Close to stop the agent. Options configure the
// transport (WithDialer), reconnection (WithRetryPolicy), and fault
// injection (WithFaultPlan).
func Connect(ctx context.Context, addr string, id core.HouseholdID, policy Policy, opts ...Option) (*Agent, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	if err := o.validate("Connect", targetAgent); err != nil {
		return nil, err
	}
	cfg := o.agent
	if cfg.dial == nil {
		var d net.Dialer
		cfg.dial = func(ctx context.Context) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := cfg.dial(ctx)
	if err != nil {
		return nil, fmt.Errorf("netproto: dial center: %w", err)
	}
	a, err := newAgent(ctx, conn, id, policy, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return a, nil
}

// NewAgent registers the household over a caller-provided connection —
// typically a tls.Conn — and starts the agent's message loop. The agent
// takes ownership of the connection and closes it on Close. Without a
// WithDialer option the agent cannot reconnect, since it has no way to
// re-establish the transport.
func NewAgent(conn net.Conn, id core.HouseholdID, policy Policy, opts ...Option) (*Agent, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}
	if err := o.validate("NewAgent", targetAgent); err != nil {
		return nil, err
	}
	return newAgent(context.Background(), conn, id, policy, o.agent)
}

func newAgent(ctx context.Context, conn net.Conn, id core.HouseholdID, policy Policy, cfg agentConfig) (*Agent, error) {
	if policy == nil {
		return nil, errors.New("netproto: nil policy")
	}
	a := &Agent{
		id:     id,
		policy: policy,
		cfg:    cfg,
		inj:    newFaultInjector(cfg.plan),
		conn:   conn,
		paid:   make(map[int]bool),
		done:   make(chan struct{}),
	}
	a.ctx, a.cancel = context.WithCancel(context.Background())
	if cfg.retry.Enabled() {
		a.jitter = cfg.retry.jitterRNG(uint64(id))
	}
	if cfg.reporting {
		a.reg = obs.NewRegistry()
		a.src = fmt.Sprintf("agent/%d", id)
	}
	token, err := a.handshake(ctx, conn, "")
	if err != nil {
		return nil, err
	}
	a.token = token
	go a.loop()
	return a, nil
}

// handshake registers or resumes over conn: hello (bearing the resume
// token, if any, plus the codec offer) out, welcome back, both in JSON.
// The welcome names the codec of every later frame the agent sends; a
// welcome naming none this build knows is refused. A done ctx fails the
// exchange through the connection's deadline. It returns the session
// token the center issued.
func (a *Agent) handshake(ctx context.Context, conn net.Conn, token string) (string, error) {
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	fr := &frameReader{r: conn}
	err := a.inj.send(conn, jsonCodec{}, &Message{Kind: KindHello, ID: a.id, Token: token, Codecs: CodecNames()})
	var welcome *Message
	if err == nil {
		welcome, err = fr.next()
	}
	if !stop() {
		// ctx ended the exchange, or ended just after it and left its
		// deadline on conn: either way the handshake fails.
		return "", fmt.Errorf("netproto: handshake: %w", ctx.Err())
	}
	switch {
	case err != nil:
		return "", fmt.Errorf("netproto: handshake: %w", err)
	case welcome.Kind != KindWelcome:
		return "", rejectionError(welcome)
	}
	codec, ok := LookupCodec(welcome.Codec)
	if !ok {
		return "", fmt.Errorf("netproto: center selected unknown codec %q", welcome.Codec)
	}
	a.mu.Lock()
	a.codec, a.fr = codec, fr
	a.mu.Unlock()
	return welcome.Token, nil
}

// rejectionError maps a registration rejection onto the sentinel error
// taxonomy: a token mismatch is ErrSessionExpired, a follower replica
// is ErrNotLeader. The wire strings themselves are stable protocol
// surface; the sentinels are what callers should branch on.
func rejectionError(welcome *Message) error {
	switch {
	case strings.Contains(welcome.Err, "token"):
		return fmt.Errorf("netproto: registration rejected (%s): %w", welcome.Err, ErrSessionExpired)
	case strings.Contains(welcome.Err, "not leader"):
		return fmt.Errorf("netproto: registration rejected (%s): %w", welcome.Err, ErrNotLeader)
	default:
		return fmt.Errorf("netproto: registration rejected: %s %s", welcome.Kind, welcome.Err)
	}
}

// terminalErr is the error an agent records when its reconnect path
// gives up: with a retry policy configured the cause is wrapped in
// ErrRetryExhausted, so callers distinguish "retried and lost" from the
// policy-less first-failure-is-terminal mode.
func (a *Agent) terminalErr(cause error) error {
	if !a.cfg.retry.Enabled() {
		return cause
	}
	return fmt.Errorf("%w (%d attempts): %v", ErrRetryExhausted, a.cfg.retry.MaxAttempts, cause)
}

// ID returns the agent's household ID.
func (a *Agent) ID() core.HouseholdID { return a.id }

// Close shuts the connection, fails a reconnect in progress, and waits
// for the message loop to exit.
func (a *Agent) Close() error {
	a.once.Do(func() {
		a.mu.Lock()
		a.closed = true
		conn := a.conn
		a.mu.Unlock()
		a.cancel()
		conn.Close()
	})
	<-a.done
	return nil
}

// Err returns the terminal error of the message loop, if any (nil for
// a clean shutdown via Close).
func (a *Agent) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// History returns the settlements observed so far, oldest first.
func (a *Agent) History() []PaymentDetail {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]PaymentDetail, len(a.history))
	copy(out, a.history)
	return out
}

// phaseSpan opens the agent-side span for handling one center message:
// a remote child of the center's phase span (via the message's trace
// context), so both sides of a settlement day share one trace.
func (a *Agent) phaseSpan(m *Message, phase Kind) *ActiveAgentSpan {
	var tc obs.TraceContext
	if m.Trace != nil {
		tc = *m.Trace
	}
	span := obs.DefaultTracer().StartRemote(tc, obs.SpanNetAgentPhase,
		obs.LabelPhase, string(phase),
		"day", strconv.Itoa(m.Day),
		"household", strconv.Itoa(int(a.id)))
	return &ActiveAgentSpan{span: span, traceID: tc.TraceID}
}

// ActiveAgentSpan pairs an in-flight agent span with its trace ID so
// replies can carry the agent's own context back to the center.
type ActiveAgentSpan struct {
	span    *obs.ActiveSpan
	traceID string
}

// reply returns the trace context an agent reply should carry: the
// shared trace ID with the agent span as the sender position. Nil when
// the inbound message carried no trace.
func (s *ActiveAgentSpan) reply() *obs.TraceContext {
	if s.traceID == "" {
		return nil
	}
	return &obs.TraceContext{TraceID: s.traceID, SpanID: s.span.ID()}
}

// End finishes the underlying span (nil-safe).
func (s *ActiveAgentSpan) End() { s.span.End() }

func (a *Agent) loop() {
	defer close(a.done)
	for {
		a.mu.Lock()
		fr := a.fr
		a.mu.Unlock()
		m, err := fr.next()
		if err != nil {
			if a.isClosed() {
				return
			}
			if a.reconnect() {
				continue
			}
			a.setErr(a.terminalErr(err))
			return
		}
		fatal, err := a.handle(m)
		if err == nil {
			continue
		}
		if fatal {
			a.setErr(err)
			return
		}
		// A send failed: the link is down, not the protocol. Try to
		// resume; the center will replay the message we failed to
		// answer.
		if a.isClosed() {
			return
		}
		if a.reconnect() {
			continue
		}
		a.setErr(a.terminalErr(err))
		return
	}
}

// handle processes one center message. A returned error with fatal true
// is a protocol failure that terminates the agent; with fatal false it
// is a transport failure the reconnect path may recover from. Payments
// are deduplicated by day, since session resumption can replay one the
// agent already observed.
func (a *Agent) handle(m *Message) (fatal bool, err error) {
	switch m.Kind {
	case KindRequest:
		span := a.phaseSpan(m, KindPreference)
		pref := a.policy.Report(m.Day)
		if a.reg != nil {
			a.reg.Counter(obs.MetricAgentReportsTotal).Inc()
		}
		err := a.send(&Message{Kind: KindPreference, ID: a.id, Day: m.Day, Pref: &pref, Trace: span.reply()})
		span.End()
		return false, err
	case KindAllocation:
		if m.Interval == nil {
			return true, errors.New("netproto: allocation frame without interval")
		}
		span := a.phaseSpan(m, KindConsumption)
		cons := a.policy.Consume(m.Day, *m.Interval)
		// The obs snapshot piggybacks on the consumption phase, sent
		// BEFORE the reply: the center's collect() returns the moment
		// the last consumption lands, so a report trailing it would sit
		// in the inbox until the next phase. Snapshots are cumulative —
		// a replay after reconnect just re-delivers the same totals.
		if a.reg != nil {
			report := &Message{Kind: KindMetricsReport, ID: a.id, Day: m.Day,
				Metrics: &obs.MetricsReport{Source: a.src, Snapshot: a.reg.Snapshot()}}
			if err := a.send(report); err != nil {
				span.End()
				return false, err
			}
		}
		err := a.send(&Message{Kind: KindConsumption, ID: a.id, Day: m.Day, Interval: &cons, Trace: span.reply()})
		span.End()
		return false, err
	case KindPayment:
		if m.Payment == nil {
			return false, nil
		}
		// The day is marked paid first, so a duplicated frame is
		// dropped, and shows in History() last: whoever sees the
		// payment there also sees its span, counter and feedback.
		a.mu.Lock()
		dup := a.paid[m.Day]
		a.paid[m.Day] = true
		a.mu.Unlock()
		if dup {
			return false, nil
		}
		if a.reg != nil {
			a.reg.Counter(obs.MetricAgentDaysSettled).Inc()
		}
		span := a.phaseSpan(m, KindPayment)
		a.policy.Feedback(m.Day, *m.Payment)
		span.End()
		a.mu.Lock()
		a.history = append(a.history, *m.Payment)
		a.mu.Unlock()
		return false, nil
	case KindError:
		return true, fmt.Errorf("netproto: center error: %s", m.Err)
	default:
		return true, fmt.Errorf("netproto: unexpected %s from center", m.Kind)
	}
}

// send writes one message on the current connection through the fault
// injector, in the codec the connection's welcome selected.
func (a *Agent) send(m *Message) error {
	a.mu.Lock()
	conn, codec := a.conn, a.codec
	a.mu.Unlock()
	return a.inj.send(conn, codec, m)
}

// reconnect runs the retry policy after a link failure: bounded
// redials spaced by exponential backoff with the agent's deterministic
// jitter stream, each presenting the session token so the center
// resumes the session and replays missed messages. It reports whether
// a connection was re-established.
func (a *Agent) reconnect() bool {
	a.mu.Lock()
	token := a.token
	closed := a.closed
	a.mu.Unlock()
	if closed || a.cfg.dial == nil || !a.cfg.retry.Enabled() || token == "" {
		return false
	}
	for attempt := 1; attempt <= a.cfg.retry.MaxAttempts; attempt++ {
		obs.Default().Counter(obs.MetricNetRetriesTotal).Inc()
		if rec := obs.DefaultRecorder(); rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.EventRetry, Shard: -1, Action: obs.SideAgent, N: attempt})
		}
		wait := time.NewTimer(a.cfg.retry.Backoff(attempt, a.jitter))
		select {
		case <-wait.C:
		case <-a.ctx.Done():
			wait.Stop()
			return false
		}
		conn, err := a.cfg.dial(a.ctx)
		if err != nil {
			continue
		}
		// Any handshake failure is retryable: the center may still be
		// tearing down the dead connection (a transient "duplicate
		// household id") or restarting. Close fails it at once.
		newToken, err := a.handshake(a.ctx, conn, token)
		if err != nil {
			conn.Close()
			continue
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return false
		}
		a.conn = conn
		if newToken != "" {
			a.token = newToken
		}
		a.mu.Unlock()
		obs.Default().Counter(obs.MetricNetResumesTotal, obs.LabelSide, obs.SideAgent).Inc()
		if rec := obs.DefaultRecorder(); rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.EventResume, Shard: -1, Action: obs.SideAgent, N: attempt})
		}
		return true
	}
	return false
}

func (a *Agent) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

func (a *Agent) setErr(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return // shutdown initiated locally; the read error is expected
	}
	if a.err == nil && err != nil {
		a.err = err
	}
}
