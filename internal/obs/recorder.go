package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds recorded by the flight recorder. Every kind a hook
// records is named here, mirroring the metric- and span-name
// discipline: enkidebug switches on these strings when it rebuilds an
// incident timeline from a bundle.
const (
	// EventWireFrame is one batch frame encoded or decoded (Action is
	// the traffic direction, Codec the negotiated codec, N the messages
	// in the frame, Bytes the on-wire frame size).
	EventWireFrame = "wire.frame"
	// EventFault is one fault-plan hit on a shard link or a TCP
	// connection (Action is the injected FaultAction, N the zero-based
	// message index it struck; Shard is -1 on TCP).
	EventFault = "fault"
	// EventPhase is a protocol phase edge on the center (Action "start"
	// with N = members polled, or "deadline" with N = households still
	// dark when the phase deadline expired).
	EventPhase = "phase"
	// EventRetry is one agent reconnect attempt (N = attempt number).
	EventRetry = "retry"
	// EventResume is a resumed session (Action is the observing side).
	EventResume = "resume"
	// EventReplay is a replayed phase backlog (N = messages replayed).
	EventReplay = "replay"
	// EventDark is a household going dark mid-day (N = household ID).
	EventDark = "dark"
	// EventShardDay is one shard's settled day (Action "ok",
	// "degraded", or "failed"; N = households settled).
	EventShardDay = "shard.day"
	// EventDay is a day on a center or cluster (Action "ok",
	// "degraded", or "failed" with Err set; N = households settled).
	EventDay = "day"
	// EventLedger is one audit-ledger append (Bytes = encoded length).
	EventLedger = "ledger.append"
	// EventRuntime is a periodic runtime snapshot (N = goroutines,
	// Bytes = heap bytes in use, Val = last GC pause in ms). Runtime
	// state is wall-clock fact, so the kind is determinism-exempt.
	EventRuntime = "runtime"
	// EventTrigger is a debug-bundle capture (Action = reason). Fires
	// on wall-clock breaches, so the kind is determinism-exempt.
	EventTrigger = "trigger"
)

// IsTimingEvent reports whether the event kind records wall-clock
// facts (runtime snapshots, bundle triggers) that the Workers:1 ≡
// Workers:N determinism contract exempts — the recorder analogue of
// IsTimingMetric's "_ms" rule.
func IsTimingEvent(kind string) bool {
	return kind == EventRuntime || kind == EventTrigger
}

// Event is one flight-recorder entry. Every field except TimeNS is a
// pure function of the settled work — the capture clock is exempt from
// the determinism contract exactly as "_ms" metric series are — so the
// multiset of event identities matches across worker counts. Fields
// are fixed scalars (no maps) so recording never allocates.
type Event struct {
	TimeNS  int64   `json:"timeNs"`
	Kind    string  `json:"kind"`
	Day     int     `json:"day,omitempty"`
	Shard   int     `json:"shard"` // -1 when not shard-scoped
	Phase   string  `json:"phase,omitempty"`
	Codec   string  `json:"codec,omitempty"`
	Action  string  `json:"action,omitempty"`
	N       int     `json:"n,omitempty"`
	Bytes   int     `json:"bytes,omitempty"`
	Val     float64 `json:"val,omitempty"`
	TraceID string  `json:"traceId,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// Identity renders the timing-free identity of an event — every field
// but the capture timestamp — for the determinism tests' multiset
// comparison across worker counts.
func (e Event) Identity() string {
	return fmt.Sprintf("%s day=%d shard=%d phase=%s codec=%s action=%s n=%d bytes=%d val=%g trace=%s err=%s",
		e.Kind, e.Day, e.Shard, e.Phase, e.Codec, e.Action, e.N, e.Bytes, e.Val, e.TraceID, e.Err)
}

// DefaultEventCapacity bounds a recorder's retained events unless
// SetCapacity overrides it — enough for several days of cluster wire
// traffic while keeping the resident ring a few MiB at most.
const DefaultEventCapacity = 1 << 14

// Recorder is the flight recorder: a bounded in-memory ring of recent
// Events. The zero value is a disabled recorder whose Record is a
// near-free atomic load, so instrumented hot paths cost nothing until
// an operator turns capture on; when the ring is full the oldest event
// is overwritten and enki_obs_recorder_dropped_total incremented.
type Recorder struct {
	enabled atomic.Bool
	mu      sync.Mutex
	ring    []Event
	head    int  // next overwrite position once the ring is full
	full    bool // the ring has wrapped at least once
	cap     int  // 0 means DefaultEventCapacity

	// Cached counter handles, refreshed when the default registry's
	// generation changes (Reset invalidates outstanding handles).
	gen             uint64
	events, dropped *Counter
}

var defaultRecorder Recorder

// DefaultRecorder returns the process-wide flight recorder the
// netproto hooks record into.
func DefaultRecorder() *Recorder { return &defaultRecorder }

// NewRecorder returns a fresh, disabled recorder (tests and benchmarks
// use private instances to stay isolated from the process-wide ring).
func NewRecorder() *Recorder { return &Recorder{} }

// Enable turns event capture on.
func (r *Recorder) Enable() { r.enabled.Store(true) }

// Disable turns event capture off (already-captured events remain).
func (r *Recorder) Disable() { r.enabled.Store(false) }

// Enabled reports whether events are being captured.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// SetCapacity bounds the number of retained events (n <= 0 restores
// DefaultEventCapacity). Call it before capture starts; shrinking a
// ring that already holds more events is not supported.
func (r *Recorder) SetCapacity(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 {
		n = 0
	}
	r.cap = n
}

// capacity returns the effective ring size; callers hold r.mu.
func (r *Recorder) capacity() int {
	if r.cap == 0 {
		return DefaultEventCapacity
	}
	return r.cap
}

// Reset discards all captured events (capture state is unchanged).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring = nil
	r.head = 0
	r.full = false
}

// Record captures one event, stamping the capture time when the caller
// left it zero. Disabled recorders return after one atomic load; when
// enabled the steady state is a mutex, a ring write, and two cached
// counter increments — zero allocations once the ring is warm.
func (r *Recorder) Record(e Event) {
	if r == nil || !r.enabled.Load() {
		return
	}
	if e.TimeNS == 0 {
		e.TimeNS = time.Now().UnixNano()
	}
	r.mu.Lock()
	if g := Default().Generation(); r.events == nil || g != r.gen {
		r.gen = g
		r.events = Default().Counter(MetricObsRecorderEvents)
		r.dropped = Default().Counter(MetricObsRecorderDropped)
	}
	c := r.capacity()
	if !r.full && len(r.ring) < c {
		if cap(r.ring) < c {
			grown := make([]Event, len(r.ring), c)
			copy(grown, r.ring)
			r.ring = grown
		}
		r.ring = append(r.ring, e)
		r.events.Inc()
		r.mu.Unlock()
		return
	}
	r.full = true
	r.ring[r.head] = e
	r.head = (r.head + 1) % c
	r.events.Inc()
	r.dropped.Inc()
	r.mu.Unlock()
}

// SampleRuntime captures one EventRuntime snapshot: live goroutines,
// heap bytes in use, and the most recent GC pause in milliseconds.
func (r *Recorder) SampleRuntime() {
	if r == nil || !r.enabled.Load() {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var pauseMS float64
	if ms.NumGC > 0 {
		pauseMS = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e6
	}
	r.Record(Event{
		Kind:  EventRuntime,
		Shard: -1,
		N:     runtime.NumGoroutine(),
		Bytes: int(ms.HeapAlloc),
		Val:   pauseMS,
	})
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return r.capacity()
	}
	return len(r.ring)
}

// Events returns a copy of the retained events in capture order
// without draining the ring, so a bundle capture never erases the
// recorder another trigger would dump.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	if r.full {
		out = append(out, r.ring[r.head:]...)
		out = append(out, r.ring[:r.head]...)
		return out
	}
	return append(out, r.ring...)
}

// Identities returns the sorted timing-free identities of the retained
// deterministic events (IsTimingEvent kinds are skipped) — the multiset
// the determinism tests compare across worker counts.
func (r *Recorder) Identities() []string {
	events := r.Events()
	out := make([]string, 0, len(events))
	for _, e := range events {
		if IsTimingEvent(e.Kind) {
			continue
		}
		out = append(out, e.Identity())
	}
	sort.Strings(out)
	return out
}

// WriteJSONL writes the retained events, one JSON object per line, in
// capture order, without draining the ring.
func (r *Recorder) WriteJSONL(w io.Writer) error { return writeJSONL(w, r.Events()) }

// ReadEvents loads an event JSONL stream (the WriteJSONL format) under
// ReadJSONL's crash-tolerance contract.
func ReadEvents(r io.Reader) ([]Event, error) { return ReadJSONL[Event](r, "obs: event") }
