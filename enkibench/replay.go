package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
	"enki/internal/mechanism"
	"enki/internal/netproto"
	"enki/internal/obs"
	"enki/internal/pricing"
	"enki/internal/replica"
	"enki/internal/sched"
)

// settlement holds the program's default settlement parameters — the
// paper's quadratic tariff, mechanism constants and 2 kW rating — which
// every workload runs with and the replays recompute the chain under.
// The replay checks fail if the program's defaults ever differ.
var settlement = struct {
	pricer pricing.Pricer
	mech   mechanism.Config
	rating float64
}{pricing.Quadratic{Sigma: pricing.DefaultSigma}, mechanism.DefaultConfig(), core.DefaultPowerRating}

// hoodDay is one neighbourhood's day as its households and the ledger
// writer saw it: the inputs every replay uses.
type hoodDay struct {
	shard    int
	traceID  string
	reports  []core.Report
	assigned []core.Interval
	consumed []core.Interval
	paid     []netproto.PaymentDetail
	ledger   []byte // the ledger line written for it; nil without a ledger
}

// hoodFromCapture assembles a neighbourhood's day from the capture
// slots of households lo..hi-1 (household ID = slot index).
func hoodFromCapture(c *capture, types []core.Type, shard int, traceID string, lo, hi int) hoodDay {
	h := hoodDay{shard: shard, traceID: traceID}
	for i := lo; i < hi; i++ {
		h.reports = append(h.reports, core.Report{ID: core.HouseholdID(i), Pref: types[i].True})
		h.assigned = append(h.assigned, c.assigned[i])
		h.consumed = append(h.consumed, c.assigned[i]) // truthful: consumed what was allocated
		h.paid = append(h.paid, c.paid[i])
	}
	return h
}

// chain is the Eq. 4–7 chain recomputed for one neighbourhood.
type chain struct {
	predicted, flex, defect, psi, payments []float64
	cost, peak                             float64
}

// replaySettle recomputes Eq. 4–7 with pricing.Cost exactly as the
// program's settlement does, from the inputs the households saw.
func replaySettle(h hoodDay) (chain, error) {
	prefs := make([]core.Preference, len(h.reports))
	for i, r := range h.reports {
		prefs[i] = r.Pref
	}
	var c chain
	c.predicted = mechanism.FlexibilityScores(prefs)
	c.flex = mechanism.ActualFlexibilities(c.predicted, h.assigned, h.consumed)
	c.defect = mechanism.DefectionScores(settlement.pricer, settlement.rating, h.assigned, h.consumed)
	psi, err := mechanism.SocialCostScores(c.flex, c.defect, settlement.mech.K)
	if err != nil {
		return c, fmt.Errorf("social cost: %w", err)
	}
	c.psi = psi
	load := core.LoadOf(h.consumed, settlement.rating)
	c.cost = pricing.Cost(settlement.pricer, load)
	c.payments, err = mechanism.Payments(c.psi, settlement.mech.Xi, c.cost)
	if err != nil {
		return c, fmt.Errorf("payments: %w", err)
	}
	c.peak = load.Peak()
	return c, nil
}

// samePayments fails unless the replayed payments equal, bit for bit,
// the payments the households received.
func samePayments(h hoodDay, c chain) error {
	for i, d := range h.paid {
		if d.Amount != c.payments[i] {
			return fmt.Errorf("neighbourhood %d household %d: replayed payment %.17g, received %.17g",
				h.shard, h.reports[i].ID, c.payments[i], d.Amount)
		}
	}
	return nil
}

// dayReplay accumulates one day's replays.
type dayReplay struct {
	settleNS, ledgerEntryNS, appendNS     int64
	encodeNS, decodeNS, federationNS      int64
	schedMallocs, mechMallocs, decMallocs uint64
	households, msgs                      int
	reports, snapshotBytes                int // federated reports and their encoded bytes
	roundTripNS                           int64
	roundTrips                            int
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replaySettleAll replays Eq. 4–7 for every neighbourhood of a day and
// checks the replayed payments against the received ones.
func (r *dayReplay) replaySettleAll(hoods []hoodDay) ([]chain, error) {
	chains := make([]chain, len(hoods))
	m0 := mallocs()
	for i, h := range hoods {
		t0 := time.Now()
		c, err := replaySettle(h)
		r.settleNS += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, err
		}
		chains[i] = c
		r.households += len(h.reports)
	}
	r.mechMallocs = mallocs() - m0
	for i, h := range hoods {
		if err := samePayments(h, chains[i]); err != nil {
			return nil, err
		}
	}
	return chains, nil
}

// replayLedger replays BuildLedgerEntry for every neighbourhood.
func (r *dayReplay) replayLedger(day int, hoods []hoodDay, chains []chain) []mechanism.LedgerEntry {
	entries := make([]mechanism.LedgerEntry, len(hoods))
	for i, h := range hoods {
		c := chains[i]
		t0 := time.Now()
		entries[i] = mechanism.BuildLedgerEntry(h.traceID, day, settlement.mech, settlement.rating,
			h.reports, h.assigned, h.consumed, nil, c.predicted, c.flex, c.defect, c.psi, c.payments, c.cost, c.peak)
		r.ledgerEntryNS += time.Since(t0).Nanoseconds()
	}
	return entries
}

// replayAppend replays Journal.AppendValue of every entry and checks
// that it writes the bytes the ledger writer received.
func (r *dayReplay) replayAppend(hoods []hoodDay, entries []mechanism.LedgerEntry) error {
	var buf bytes.Buffer
	j := netproto.NewJournal(&buf)
	for i := range entries {
		buf.Reset()
		t0 := time.Now()
		err := j.AppendValue(&entries[i])
		r.appendNS += time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		if got := bytes.TrimSuffix(buf.Bytes(), []byte("\n")); !bytes.Equal(got, hoods[i].ledger) {
			return fmt.Errorf("neighbourhood %d: replayed ledger line (%d bytes) differs from the written one (%d bytes)",
				hoods[i].shard, len(got), len(hoods[i].ledger))
		}
	}
	return nil
}

// replaySched replays Greedy.Allocate on each neighbourhood's reports
// to count its allocations (timing comes from the program's own
// histogram). Tie-breaking draws do not change the count.
func (r *dayReplay) replaySched(hoods []hoodDay) error {
	m0 := mallocs()
	for _, h := range hoods {
		g := &sched.Greedy{Pricer: settlement.pricer, Rating: settlement.rating, RNG: dist.New(uint64(h.shard) + 1)}
		if _, err := g.Allocate(h.reports); err != nil {
			return fmt.Errorf("replay allocate: %w", err)
		}
	}
	r.schedMallocs = mallocs() - m0
	return nil
}

// hoodMessages rebuilds the protocol messages one neighbourhood's day
// carried, one slice per phase: requests, preferences, allocations,
// consumptions, payments (with the neighbourhood's metrics report last
// when reporting is on).
func hoodMessages(h hoodDay, day int, report *obs.MetricsReport) [][]*netproto.Message {
	n := len(h.reports)
	phases := make([][]*netproto.Message, 5)
	for p := range phases {
		phases[p] = make([]*netproto.Message, 0, n+1)
	}
	for i, rep := range h.reports {
		pref, asg, con, pay := rep.Pref, h.assigned[i], h.consumed[i], h.paid[i]
		phases[0] = append(phases[0], &netproto.Message{Kind: netproto.KindRequest, ID: rep.ID, Day: day})
		phases[1] = append(phases[1], &netproto.Message{Kind: netproto.KindPreference, ID: rep.ID, Day: day, Pref: &pref})
		phases[2] = append(phases[2], &netproto.Message{Kind: netproto.KindAllocation, ID: rep.ID, Day: day, Interval: &asg})
		phases[3] = append(phases[3], &netproto.Message{Kind: netproto.KindConsumption, ID: rep.ID, Day: day, Interval: &con})
		phases[4] = append(phases[4], &netproto.Message{Kind: netproto.KindPayment, ID: rep.ID, Day: day, Payment: &pay})
	}
	if report != nil {
		phases[4] = append(phases[4], &netproto.Message{Kind: netproto.KindMetricsReport, Day: day, Metrics: report})
	}
	return phases
}

// replayCodec encodes each phase's messages into batch frames of up to
// batch messages with AppendBatch, then decodes every frame with
// DecodeBatch, timing both and counting the decode's allocations.
func (r *dayReplay) replayCodec(codec netproto.Codec, batch int, phases [][]*netproto.Message) error {
	var frames [][]byte
	for _, msgs := range phases {
		for lo := 0; lo < len(msgs); lo += batch {
			hi := lo + batch
			if hi > len(msgs) {
				hi = len(msgs)
			}
			t0 := time.Now()
			frame, err := netproto.AppendBatch(nil, codec, msgs[lo:hi])
			r.encodeNS += time.Since(t0).Nanoseconds()
			if err != nil {
				return fmt.Errorf("replay encode: %w", err)
			}
			frames = append(frames, frame)
			r.msgs += hi - lo
		}
	}
	decoded := 0
	m0 := mallocs()
	t0 := time.Now()
	for _, f := range frames {
		msgs, err := netproto.DecodeBatch(f[4:])
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		decoded += len(msgs)
	}
	r.decodeNS += time.Since(t0).Nanoseconds()
	r.decMallocs += mallocs() - m0
	if decoded != r.msgs {
		return fmt.Errorf("replay decoded %d of %d messages", decoded, r.msgs)
	}
	return nil
}

// rebuildRegistry builds a registry holding the series of a reported
// snapshot, so Registry.Snapshot can be replayed on the same shape.
func rebuildRegistry(s obs.Snapshot) *obs.Registry {
	reg := obs.NewRegistry()
	for key, v := range s.Counters {
		reg.Counter(key).Add(v)
	}
	for key, v := range s.Gauges {
		reg.Gauge(key).Set(v)
	}
	for key, h := range s.Histograms {
		hist := reg.Histogram(key, h.Bounds)
		for b, n := range h.Buckets {
			v := 0.0
			switch {
			case b < len(h.Bounds):
				v = h.Bounds[b]
			case len(h.Bounds) > 0:
				v = h.Bounds[len(h.Bounds)-1] + 1
			}
			for k := uint64(0); k < n; k++ {
				hist.Observe(v)
			}
		}
	}
	return reg
}

// replayFederation replays each reporting neighbourhood's
// Registry.Snapshot and the center's Federation.Report of it, and
// measures each report's encoded size in the workload's codec.
func (r *dayReplay) replayFederation(day int, codec netproto.Codec, sources map[string]obs.Snapshot) error {
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	fed := obs.NewFederation(obs.NewRegistry())
	for _, name := range names {
		reg := rebuildRegistry(sources[name])
		t0 := time.Now()
		rep := &obs.MetricsReport{Source: name, Snapshot: reg.Snapshot()}
		fed.Report(rep)
		r.federationNS += time.Since(t0).Nanoseconds()
		enc, err := codec.Append(nil, &netproto.Message{Kind: netproto.KindMetricsReport, Day: day, Metrics: rep})
		if err != nil {
			return fmt.Errorf("encode metrics report: %w", err)
		}
		r.snapshotBytes += len(enc)
		r.reports++
	}
	return nil
}

// peerEcho is the follower end of a replay replica link: a loopback TCP
// connection whose far side answers every framed message with an ack.
type peerEcho struct {
	ln   net.Listener
	conn net.Conn
	done chan struct{}
}

func startPeerEcho() (*peerEcho, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("replay peer listener: %w", err)
	}
	p := &peerEcho{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			m, err := replica.ReadMessage(conn)
			if err != nil {
				return
			}
			ack := &replica.Message{Kind: replica.MsgAck, Term: m.Term, From: 1, OK: true}
			if m.Entry != nil {
				ack.LastIndex = m.Entry.Index
			}
			if err := replica.WriteMessage(conn, ack); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-p.done
		return nil, fmt.Errorf("replay peer dial: %w", err)
	}
	p.conn = conn
	return p, nil
}

// roundTrip writes m and reads the ack, returning the elapsed time.
func (p *peerEcho) roundTrip(m *replica.Message) (int64, error) {
	t0 := time.Now()
	if err := replica.WriteMessage(p.conn, m); err != nil {
		return 0, err
	}
	ack, err := replica.ReadMessage(p.conn)
	if err != nil {
		return 0, err
	}
	if ack.Kind != replica.MsgAck || !ack.OK {
		return 0, fmt.Errorf("replay peer answered %s", ack.Kind)
	}
	return time.Since(t0).Nanoseconds(), nil
}

func (p *peerEcho) close() {
	p.conn.Close()
	p.ln.Close()
	<-p.done
}

// dayEntries rebuilds the quorum-log entries one center day replicates:
// the preference and consumption phase boundaries and the settled day
// with its ledger line, in the layout the replica set marshals them.
func dayEntries(rec *netproto.DayRecord, ledger []byte, firstIndex uint64) ([]replica.Entry, error) {
	pref, err := json.Marshal(struct {
		Reports []core.Report `json:"reports"`
	}{rec.Reports})
	if err != nil {
		return nil, err
	}
	cons, err := json.Marshal(struct {
		Consumptions []core.Consumption `json:"consumptions"`
	}{rec.Consumptions})
	if err != nil {
		return nil, err
	}
	dayData, err := json.Marshal(struct {
		Record *netproto.DayRecord `json:"record"`
		Ledger json.RawMessage     `json:"ledger,omitempty"`
	}{rec, ledger})
	if err != nil {
		return nil, err
	}
	return []replica.Entry{
		{Term: 1, Index: firstIndex, Kind: replica.KindPhase, Day: rec.Day, Phase: "preference", Data: pref},
		{Term: 1, Index: firstIndex + 1, Kind: replica.KindPhase, Day: rec.Day, Phase: "consumption", Data: cons},
		{Term: 1, Index: firstIndex + 2, Kind: replica.KindDay, Day: rec.Day, Data: dayData},
	}, nil
}
