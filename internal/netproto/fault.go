package netproto

import (
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"enki/internal/dist"
	"enki/internal/obs"
)

// FaultAction is one kind of injected network fault, applied to a
// single outbound protocol message.
type FaultAction uint8

// Fault actions a FaultPlan can schedule per message index.
const (
	// FaultNone delivers the message normally.
	FaultNone FaultAction = iota
	// FaultDrop cuts the link instead of delivering the message: the
	// connection is closed and the frame is lost, as if the cable was
	// pulled mid-send. The peer observes a read error; the sender's own
	// next read fails, which is what triggers the agent's retry path.
	FaultDrop
	// FaultDelay holds the message for the plan's Hold duration before
	// delivering it, simulating a congested or slow link.
	FaultDelay
	// FaultDup delivers the frame twice, simulating a retransmitting
	// link. Receivers must treat day-cycle replies idempotently.
	FaultDup
	// FaultGarble delivers a correctly framed but bit-flipped payload.
	// The receiver's frame decode fails and it drops the connection,
	// exercising the same resume path as FaultDrop but from the far
	// side of the link.
	FaultGarble
)

// String names the action for metrics labels and plan specs.
func (a FaultAction) String() string {
	switch a {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultDup:
		return "dup"
	case FaultGarble:
		return "garble"
	default:
		return "none"
	}
}

// DefaultFaultHold is the FaultDelay hold time when a plan does not set
// one.
const DefaultFaultHold = 10 * time.Millisecond

// FaultPlan is a deterministic fault-injection schedule: a map from
// outbound message index to the fault applied to that message. On an
// agent the index counts every message the agent ever sends (hello,
// then one reply per phase, then the hellos of any reconnects); on the
// center it counts per connection. Identical plans yield identical
// fault sequences, which is what makes chaos runs reproducible and lets
// the chaos suite assert byte-identical ledgers across repeats.
//
// Build one explicitly, with GenerateFaultPlan (seeded rates), or from
// a -fault-plan flag spec via ParseFaultPlan.
type FaultPlan struct {
	// Actions maps a 0-based outbound message index to its fault.
	// Indexes absent from the map deliver normally.
	Actions map[int]FaultAction
	// Hold is the FaultDelay hold time; zero means DefaultFaultHold.
	Hold time.Duration
}

// ActionAt returns the fault scheduled for message index i (nil-safe).
func (p *FaultPlan) ActionAt(i int) FaultAction {
	if p == nil || p.Actions == nil {
		return FaultNone
	}
	return p.Actions[i]
}

func (p *FaultPlan) hold() time.Duration {
	if p == nil || p.Hold == 0 {
		return DefaultFaultHold
	}
	return p.Hold
}

// String renders the plan as a spec string ParseFaultPlan accepts,
// with explicit per-index actions in index order.
func (p *FaultPlan) String() string {
	if p == nil || len(p.Actions) == 0 {
		return ""
	}
	idx := make([]int, 0, len(p.Actions))
	for i := range p.Actions {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	parts := make([]string, 0, len(idx))
	for _, i := range idx {
		parts = append(parts, fmt.Sprintf("%s@%d", p.Actions[i], i))
	}
	return strings.Join(parts, ",")
}

// GenerateFaultPlan derives a fault schedule for the first msgs message
// indexes from a seed and per-action rates in [0, 1]. The draw is a
// pure function of the arguments (dist.RNG), so the same seed and
// rates always name the same plan — reproducible soak runs.
func GenerateFaultPlan(seed uint64, msgs int, drop, delay, dup, garble float64) *FaultPlan {
	rng := dist.New(seed)
	plan := &FaultPlan{Actions: make(map[int]FaultAction)}
	for i := 0; i < msgs; i++ {
		u := rng.Float64()
		switch {
		case u < drop:
			plan.Actions[i] = FaultDrop
		case u < drop+delay:
			plan.Actions[i] = FaultDelay
		case u < drop+delay+dup:
			plan.Actions[i] = FaultDup
		case u < drop+delay+dup+garble:
			plan.Actions[i] = FaultGarble
		}
	}
	return plan
}

// ParseFaultPlan parses a -fault-plan flag spec. Two token families may
// be mixed, comma-separated:
//
//	drop@3,dup@7,garble@12      explicit per-index actions
//	seed=42,msgs=100,drop=0.05  seeded generation over the first msgs
//	                            indexes (rates: drop, delay, dup, garble)
//	hold=50ms                   FaultDelay hold time
//
// Explicit index actions override generated ones. An empty spec yields
// a nil plan (no faults).
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var (
		seed                   uint64
		msgs                   = 64
		drop, delay, dup, garb float64
		hold                   time.Duration
		generate               bool
		explicit               = map[int]FaultAction{}
		actionsByName          = map[string]FaultAction{"drop": FaultDrop, "delay": FaultDelay, "dup": FaultDup, "garble": FaultGarble}
	)
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if name, idxStr, ok := strings.Cut(tok, "@"); ok {
			action, known := actionsByName[name]
			if !known {
				return nil, fmt.Errorf("netproto: fault plan %q: unknown action %q", spec, name)
			}
			idx, err := strconv.Atoi(idxStr)
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("netproto: fault plan %q: bad message index %q", spec, idxStr)
			}
			explicit[idx] = action
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("netproto: fault plan %q: token %q is neither action@index nor key=value", spec, tok)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("netproto: fault plan %q: bad seed %q", spec, val)
			}
			seed = n
		case "msgs":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("netproto: fault plan %q: bad msgs %q", spec, val)
			}
			msgs = n
		case "hold":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("netproto: fault plan %q: bad hold %q", spec, val)
			}
			hold = d
		case "drop", "delay", "dup", "garble":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil || rate < 0 || rate > 1 {
				return nil, fmt.Errorf("netproto: fault plan %q: rate %s=%q outside [0, 1]", spec, key, val)
			}
			generate = true
			switch key {
			case "drop":
				drop = rate
			case "delay":
				delay = rate
			case "dup":
				dup = rate
			case "garble":
				garb = rate
			}
		default:
			return nil, fmt.Errorf("netproto: fault plan %q: unknown key %q", spec, key)
		}
	}
	var plan *FaultPlan
	if generate {
		plan = GenerateFaultPlan(seed, msgs, drop, delay, dup, garb)
	} else {
		plan = &FaultPlan{Actions: make(map[int]FaultAction)}
	}
	for i, a := range explicit {
		plan.Actions[i] = a
	}
	plan.Hold = hold
	return plan, nil
}

// faultInjector applies a FaultPlan to a stream of outbound messages,
// counting indexes across calls. A nil injector (or nil plan) delivers
// everything untouched, so senders can call it unconditionally.
type faultInjector struct {
	plan *FaultPlan
	next atomic.Int64
}

func newFaultInjector(plan *FaultPlan) *faultInjector {
	if plan == nil {
		return nil
	}
	return &faultInjector{plan: plan}
}

// send delivers m on conn as a one-message batch frame in codec c,
// applying the fault scheduled for this injector's next message index.
// FaultDrop closes conn and reports success: the message is lost in
// flight and the link is down, which the sender discovers on its next
// read — exactly how a real link failure presents.
func (f *faultInjector) send(conn net.Conn, c Codec, m *Message) error {
	msgs := []*Message{m}
	if f == nil {
		return WriteBatch(conn, c, msgs)
	}
	idx := int(f.next.Add(1) - 1)
	action := f.plan.ActionAt(idx)
	if action != FaultNone {
		countFault(action, -1, idx)
	}
	switch action {
	case FaultDrop:
		conn.Close()
		return nil
	case FaultDelay:
		time.Sleep(f.plan.hold())
		return WriteBatch(conn, c, msgs)
	case FaultDup:
		if err := WriteBatch(conn, c, msgs); err != nil {
			return err
		}
		return WriteBatch(conn, c, msgs)
	case FaultGarble:
		return writeGarbled(conn, c, msgs)
	default:
		return WriteBatch(conn, c, msgs)
	}
}

// countFault counts one injected fault and records it on the flight
// recorder, for a TCP connection (shard -1) and a shard link alike: idx
// is the zero-based message index the fault struck.
func countFault(action FaultAction, shard, idx int) {
	obs.Default().Counter(obs.MetricNetFaultsTotal, obs.LabelAction, action.String()).Inc()
	if rec := obs.DefaultRecorder(); rec.Enabled() {
		rec.Record(obs.Event{Kind: obs.EventFault, Shard: shard, Action: action.String(), N: idx})
	}
}

// writeGarbled frames msgs correctly but bit-flips the frame body, so
// the receiver's length-prefixed read succeeds and its decode fails — a
// deterministic stand-in for on-wire corruption. The frame is counted
// like any other sent frame.
func writeGarbled(w io.Writer, c Codec, msgs []*Message) error {
	frame, err := AppendBatch(nil, c, msgs)
	if err != nil {
		return err
	}
	garble(frame)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("netproto: write frame: %w", err)
	}
	observeBatch(obs.DirectionSent, c, len(msgs), len(frame))
	return nil
}

// garble bit-flips every byte of a frame after its length header: the
// codec ID or the message bytes are corrupted either way, so decoding
// the frame fails.
func garble(frame []byte) {
	for i := 4; i < len(frame); i++ {
		frame[i] ^= 0x5a
	}
}
