package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DayStatus is the operator view of the current settlement day — what
// /api/v1/day serves. Phase names follow the collection phases
// ("preference", "consumption"), then "settling" while the day settles
// and pays, "settled" or "failed" once it ends, and "idle" before the
// first day.
type DayStatus struct {
	Day                 int     `json:"day"`
	Phase               string  `json:"phase"`
	DeadlineRemainingMS float64 `json:"deadlineRemainingMs"`
	Members             int     `json:"members"`
	Reported            int     `json:"reported"`
	Dark                int     `json:"dark"` // members with no reply this phase
	DaysSettled         uint64  `json:"daysSettled"`

	// Last settled day's aggregates. LastResidual is the Theorem 1
	// deviation Σp − ξ·κ, which a healthy mechanism keeps at zero.
	LastCost     float64 `json:"lastCost"`
	LastRevenue  float64 `json:"lastRevenue"`
	LastResidual float64 `json:"lastResidual"`
	LastPeak     float64 `json:"lastPeak"`
}

// ShardStatus is one shard's operator view — what /api/v1/shards
// serves, one element per shard. A single-neighborhood center reports
// itself as shard 0.
type ShardStatus struct {
	Shard        int     `json:"shard"`
	Healthy      bool    `json:"healthy"`
	Err          string  `json:"err,omitempty"`
	TraceID      string  `json:"traceId,omitempty"`
	LastDay      int     `json:"lastDay"`
	Households   int     `json:"households"`
	Settled      int     `json:"settled"`
	Absent       int     `json:"absent"`
	Substituted  int     `json:"substituted"`
	Cost         float64 `json:"cost"`
	Revenue      float64 `json:"revenue"`
	Residual     float64 `json:"residual"` // Σp − ξ·κ for the shard
	LastSettleMS float64 `json:"lastSettleMs"`
}

// StatusSource supplies the live day and shard state the operator API
// serves; the netproto Center and Cluster implement it.
type StatusSource interface {
	DayStatus() DayStatus
	ShardStatuses() []ShardStatus
}

// ReplicaStatus is one replica's operator view — what /api/v1/replicas
// serves, one element per replica of the settlement center's quorum
// set.
type ReplicaStatus struct {
	ID          int    `json:"id"`
	Role        string `json:"role"` // "leader", "follower", or "dead"
	Term        uint64 `json:"term"`
	CommitIndex uint64 `json:"commitIndex"`
	CommitLag   uint64 `json:"commitLag"` // held log length minus commit watermark
	Addr        string `json:"addr,omitempty"`
}

// ReplicaSetStatus is the whole quorum set's operator view: the
// current leader, its term, whether a majority of replicas is still
// live, and how many mid-day takeovers have happened.
type ReplicaSetStatus struct {
	Leader    int             `json:"leader"` // -1 when no quorum holds
	Term      uint64          `json:"term"`
	Quorum    bool            `json:"quorum"`
	Failovers uint64          `json:"failovers"`
	Replicas  []ReplicaStatus `json:"replicas"`
}

// ReplicaSource supplies replica-set health; the netproto ReplicaSet
// implements it.
type ReplicaSource interface {
	ReplicaStatuses() ReplicaSetStatus
}

// LedgerTailer serves the last n audit-ledger lines; the netproto
// Journal implements it. Lines are raw JSON (mechanism.LedgerEntry
// encodings) — obs stays dependency-free of the mechanism package.
type LedgerTailer interface {
	LedgerTail(n int) []json.RawMessage
}

// MaxLedgerTail is the largest n the ledger-tail surface serves — the
// journal's in-memory tail ring holds exactly this many entries, so a
// larger request cannot be answered honestly and /api/v1/ledger/tail
// rejects it with 400 rather than silently clamping. Debug bundles
// capture the full ring.
const MaxLedgerTail = 256

// Operator is the cluster-wide operator plane served beside /metrics:
// readiness distinct from liveness, the /api/v1 status endpoints, SLO
// burn rates, and the federated metrics view. Zero-value fields are
// simply absent from the API (their endpoints return 404), so a
// process wires up only the surfaces it has.
type Operator struct {
	Registry   *Registry
	Status     StatusSource
	Replicas   ReplicaSource // replica-set health, served at /api/v1/replicas
	Ledger     LedgerTailer
	Federation *Federation
	SLO        *SLOEngine
	Debug      *Trigger // debug-bundle trigger, served at /api/v1/debug/bundle

	ready atomic.Bool
	sloMu sync.Mutex // serializes SLOEngine.Sample across requests
}

// NewOperator returns an operator plane over reg (nil means the default
// registry), initially not ready.
func NewOperator(reg *Registry) *Operator {
	if reg == nil {
		reg = Default()
	}
	return &Operator{Registry: reg}
}

// SetReady flips /readyz between 503 (starting, draining) and 200.
func (o *Operator) SetReady(ready bool) { o.ready.Store(ready) }

// Ready reports the current readiness state.
func (o *Operator) Ready() bool { return o.ready.Load() }

// SampleSLO evaluates the SLO engine under the operator's sample lock
// (nil when no engine is wired). The /api/v1/slo handler and the
// debug-bundle trigger share it, so concurrent samples never
// interleave on the engine's ring.
func (o *Operator) SampleSLO(now time.Time) []ObjectiveStatus {
	if o == nil || o.SLO == nil {
		return nil
	}
	o.sloMu.Lock()
	defer o.sloMu.Unlock()
	return o.SLO.Sample(now)
}

// Handler builds the operator mux: the debug surface (/metrics,
// /healthz, pprof) plus /readyz and the /api/v1 endpoints.
func (o *Operator) Handler() http.Handler {
	mux := http.NewServeMux()
	o.register(mux)
	return mux
}

func (o *Operator) register(mux *http.ServeMux) {
	reg := o.Registry
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			Logger().Error("metrics write failed", "err", err)
		}
	})
	// /healthz is liveness: the process is up and serving. Readiness —
	// enrolled, cluster started, able to do useful work — is /readyz.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !o.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "starting")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/api/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, reg.Snapshot())
	})
	mux.HandleFunc("/api/v1/day", func(w http.ResponseWriter, r *http.Request) {
		if o.Status == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, o.Status.DayStatus())
	})
	mux.HandleFunc("/api/v1/shards", func(w http.ResponseWriter, r *http.Request) {
		if o.Status == nil {
			http.NotFound(w, r)
			return
		}
		shards := o.Status.ShardStatuses()
		if shards == nil {
			shards = []ShardStatus{}
		}
		writeJSON(w, shards)
	})
	mux.HandleFunc("/api/v1/replicas", func(w http.ResponseWriter, r *http.Request) {
		if o.Replicas == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, o.Replicas.ReplicaStatuses())
	})
	mux.HandleFunc("/api/v1/ledger/tail", func(w http.ResponseWriter, r *http.Request) {
		if o.Ledger == nil {
			http.NotFound(w, r)
			return
		}
		n := 10
		if arg := r.URL.Query().Get("n"); arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 || v > MaxLedgerTail {
				http.Error(w, fmt.Sprintf("n must be an integer in [1, %d]", MaxLedgerTail), http.StatusBadRequest)
				return
			}
			n = v
		}
		tail := o.Ledger.LedgerTail(n)
		if tail == nil {
			tail = []json.RawMessage{}
		}
		writeJSON(w, tail)
	})
	mux.HandleFunc("/api/v1/slo", func(w http.ResponseWriter, r *http.Request) {
		if o.SLO == nil {
			http.NotFound(w, r)
			return
		}
		statuses := o.SampleSLO(time.Now())
		writeJSON(w, SLOReport{Objectives: statuses, Windows: o.SLO.Windows(), Spec: o.SLO.Objectives()})
	})
	mux.HandleFunc("/api/v1/debug/bundle", func(w http.ResponseWriter, r *http.Request) {
		if o.Debug == nil {
			http.NotFound(w, r)
			return
		}
		if r.Method == http.MethodPost {
			path, err := o.Debug.Fire("api")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if path == "" {
				http.Error(w, "bundle rate-limited", http.StatusTooManyRequests)
				return
			}
			writeJSON(w, struct {
				Path string `json:"path"`
			}{path})
			return
		}
		writeJSON(w, o.Debug.Status())
	})
	mux.HandleFunc("/api/v1/federation", func(w http.ResponseWriter, r *http.Request) {
		if o.Federation == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, o.Federation.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// SLOReport is the /api/v1/slo response body (and a debug bundle's
// slo.json). Spec carries the objective definitions — thresholds,
// budgets, series — so an offline analyzer can compare the sampled
// state against what was promised.
type SLOReport struct {
	Objectives []ObjectiveStatus `json:"objectives"`
	Windows    []SLOWindow       `json:"windows"`
	Spec       []Objective       `json:"spec,omitempty"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		Logger().Error("api encode failed", "err", err)
	}
}

// DebugServer is a running debug/operator listener; Close shuts it
// down.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// Addr returns the bound address (useful with ":0" listeners).
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and its listener.
func (s *DebugServer) Close() error { return s.srv.Close() }

// ServeOperator starts the full operator plane on addr in a background
// goroutine and returns the running server.
func ServeOperator(addr string, op *Operator) (*DebugServer, error) {
	return serveHandler(addr, op.Handler())
}

func serveHandler(addr string, h http.Handler) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			Logger().Error("debug server failed", "err", err)
		}
	}()
	return &DebugServer{srv: srv, ln: ln}, nil
}
