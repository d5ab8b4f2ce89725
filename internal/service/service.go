// Package service implements the long-running TWCA analysis daemon
// behind cmd/twca-serve: an HTTP/JSON API (versioned under /v1/) that
// accepts a system description (native JSON or the DSL), runs the
// latency / deadline-miss-model / weakly-hard-verify analyses of the
// paper plus sensitivity queries (WCET slack, breakdown jitter and
// distance, (m,k) frontiers), and answers dmm(k) and breakpoint-sweep
// queries — one at a time, or many per request over the streaming
// /v1/campaign endpoint.
//
// Four properties make it a service rather than a CGI wrapper around
// the library:
//
//   - Content-addressed caching, fleet-wide. The canonical hash of the
//     system (model.CanonicalHash) plus the analysis kind, target chain
//     and option fingerprint addresses a completed analysis artifact in
//     a two-tier store (internal/store): a per-node LRU in front of a
//     consistent-hash-sharded fleet of replicas. A repeat query skips
//     the analysis entirely; on a multi-replica deployment (Config.Self
//     / Config.Peers) the replica owning the model hash computes and
//     caches each artifact once while the others relay its responses.
//     In-flight analyses are coalesced: N concurrent identical requests
//     — on any mix of replicas — cost one analysis.
//
//   - Bounded concurrency and cancellation. Analyses are admitted
//     through a parallel.Gate; beyond the limit, requests queue
//     (FIFO-ish) instead of piling up goroutines. Every analysis runs
//     under a context canceled by client disconnect, the per-request
//     deadline, or server shutdown — and the analysis engine
//     cooperates (see repro.AnalysisRequest).
//
//   - Batch streaming. POST /v1/campaign accepts many systems in one
//     request and streams one NDJSON result line per item as analyses
//     complete, through the same worker pool, cache tier and
//     degradation ladder as the unary endpoints; item failures become
//     campaign_partial lines instead of aborting the stream.
//
//   - Observability. /healthz for liveness, /metrics in Prometheus
//     text format (request counts, store hit ratios per tier, analysis
//     latency histograms, ILP node counters), optional net/http/pprof.
//
// See docs/SERVICE.md for the endpoint reference and a worked curl
// session.
package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/parallel"
	"repro/internal/schema"
	"repro/internal/store"
)

// Config tunes the service. The zero value picks sensible defaults.
type Config struct {
	// CacheSize bounds the number of retained analysis artifacts
	// (default 128). Each artifact is a completed analysis of one
	// (system, chain, options) triple. The stored encoded answers are
	// bounded by the same number, and the memo of resolved requests and
	// system hashes by four times it.
	CacheSize int
	// RequestTimeout is the per-request analysis deadline (default
	// 30s). Requests exceeding it fail with 504. Campaign requests
	// apply it per item, not to the whole stream.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently running analyses (default
	// GOMAXPROCS). Excess requests wait at the admission gate.
	MaxInflight int
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// DrainTimeout bounds graceful shutdown (default 30s): after
	// StartDrain, new analysis requests are refused with 503 +
	// Retry-After immediately, and in-flight requests that outlive the
	// timeout are canceled and also answered 503 (the work is lost to
	// the restart, not to the system — a retry after Retry-After hits a
	// healthy instance).
	DrainTimeout time.Duration
	// Self and Peers configure the sharded analysis tier: Peers is the
	// initial set of replica base URLs (e.g. "http://10.0.0.1:8443"),
	// Self this replica's own entry in it. Artifact ownership is
	// consistent-hashed on the model hash across the membership;
	// requests for models owned elsewhere are relayed to the owner,
	// with local fallback when it is unreachable. Fewer than two peers
	// disables routing until /v1/cluster/join grows the membership at
	// runtime (see docs/SERVICE.md, "Cluster operations").
	Self  string
	Peers []string
	// ClusterSecret authenticates cluster membership mutations
	// (POST /v1/cluster/join|leave) from off-host callers: a request
	// carrying it in the X-Twca-Cluster-Secret header is authorized,
	// and propagated mutations between replicas attach it
	// automatically. Requests from loopback are always authorized, so
	// an operator on the replica's own host needs no credential. Empty
	// (the default) means mutations are loopback-only: a multi-host
	// fleet must then configure the same secret on every replica for
	// one POST to propagate fleet-wide — otherwise receivers reject
	// the propagation and each replica must be scripted individually
	// over loopback with "local_only": true.
	ClusterSecret string
	// HeartbeatInterval is the period of the active peer health probe
	// (jittered ±20% per round). Zero selects the default (2s) when the
	// fleet tier is enabled; negative disables active probing, leaving
	// only per-request failure detection. Probe outcomes drive the
	// store's MarkDown/MarkUp through a per-peer state machine:
	// HeartbeatDownAfter consecutive failures evict a peer from routing
	// (default 2), HeartbeatUpAfter consecutive successes restore it
	// (default 1).
	HeartbeatInterval  time.Duration
	HeartbeatDownAfter int
	HeartbeatUpAfter   int
	// RelayRetries bounds the additional relay attempts after the first
	// (walking the next ring arcs, decorrelated-jitter backoff between
	// attempts, never past the request's deadline budget). Zero selects
	// the default (2); negative disables retries.
	RelayRetries int
	// RelayBackoff is the base backoff before the first relay retry
	// (default 25ms); subsequent sleeps are drawn from [base, 3·prev).
	RelayBackoff time.Duration
	// HedgeDelay is the slow-peer threshold: a relay still pending
	// after it races one hedged attempt against the next ring arc
	// (first complete response wins, loser canceled — safe because
	// replicas produce byte-identical documents). Zero selects the
	// default (150ms); negative disables hedging.
	HedgeDelay time.Duration
	// MaxCampaignItems bounds the items of one /v1/campaign request
	// (default 1024).
	MaxCampaignItems int
	// CampaignWorkers bounds how many campaign items one request
	// evaluates concurrently (default MaxInflight's resolved value).
	// Item analyses still pass the global admission gate, so a
	// campaign cannot starve unary requests.
	CampaignWorkers int
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxCampaignItems <= 0 {
		c.MaxCampaignItems = 1024
	}
	// For the resilience knobs, zero means "default" and negative means
	// "disabled" (normalized to 0 here so use sites test > 0).
	c.HeartbeatInterval = defaultOrOff(c.HeartbeatInterval, 2*time.Second)
	if c.HeartbeatDownAfter <= 0 {
		c.HeartbeatDownAfter = 2
	}
	if c.HeartbeatUpAfter <= 0 {
		c.HeartbeatUpAfter = 1
	}
	switch {
	case c.RelayRetries == 0:
		c.RelayRetries = 2
	case c.RelayRetries < 0:
		c.RelayRetries = 0
	}
	if c.RelayBackoff <= 0 {
		c.RelayBackoff = 25 * time.Millisecond
	}
	c.HedgeDelay = defaultOrOff(c.HedgeDelay, 150*time.Millisecond)
	c.Self = strings.TrimRight(c.Self, "/")
	for i, p := range c.Peers {
		c.Peers[i] = strings.TrimRight(p, "/")
	}
	return c
}

// defaultOrOff resolves a duration knob where zero selects def and a
// negative value means disabled (0).
func defaultOrOff(v, def time.Duration) time.Duration {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// Validate rejects nonsensical configurations (negative sizes or
// timeouts, a fleet without a self identity); zero values select the
// defaults.
func (c Config) Validate() error {
	if c.CacheSize < 0 {
		return errNegative("CacheSize", int64(c.CacheSize))
	}
	if c.MaxInflight < 0 {
		return errNegative("MaxInflight", int64(c.MaxInflight))
	}
	if c.RequestTimeout < 0 {
		return errNegative("RequestTimeout", int64(c.RequestTimeout))
	}
	if c.MaxBodyBytes < 0 {
		return errNegative("MaxBodyBytes", c.MaxBodyBytes)
	}
	if c.DrainTimeout < 0 {
		return errNegative("DrainTimeout", int64(c.DrainTimeout))
	}
	if c.MaxCampaignItems < 0 {
		return errNegative("MaxCampaignItems", int64(c.MaxCampaignItems))
	}
	if c.CampaignWorkers < 0 {
		return errNegative("CampaignWorkers", int64(c.CampaignWorkers))
	}
	if len(c.Peers) > 0 {
		if c.Self == "" {
			return fmt.Errorf("%w: service config: Peers set without Self", repro.ErrInvalidOptions)
		}
		self := strings.TrimRight(c.Self, "/")
		found := false
		for _, p := range c.Peers {
			if strings.TrimRight(p, "/") == self {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: service config: Self %q is not in Peers", repro.ErrInvalidOptions, c.Self)
		}
	}
	return nil
}

// Server is the analysis service. Construct with New, mount Handler on
// an http.Server, and call Close during shutdown to cancel outstanding
// analyses.
type Server struct {
	cfg      Config
	store    *store.Store
	gate     *parallel.Gate
	met      *metrics
	breaker  *breaker
	warm     *repro.SensitivityWarmStore
	client   *http.Client
	mux      *http.ServeMux
	root     context.Context
	stop     context.CancelFunc
	draining atomic.Bool
	// memo maps a system digest (form tag + exact bytes) to the
	// system's canonical hash (see Server.system), and a request digest
	// (endpoint + exact body) to the resolved request (see
	// Server.resolve). It holds memoFactor entries per artifact.
	memo *store.Store
	// docs maps a document key to the stored encoding of an exact
	// answer up to its envelope tail; see serve.
	docs *store.Store
	// relaySeq feeds the deterministic splitmix64 stream behind relay
	// backoff jitter.
	relaySeq atomic.Uint64
	// hb is the peer health prober (nil when disabled); hbStopped is
	// closed when its loop has exited, so Close can wait for it.
	hb        *heartbeat
	hbStopped chan struct{}
}

// memoFactor sizes the memo against the artifact store: one artifact
// is typically read by several distinct request bodies (endpoints,
// document parameters, system forms), and a memo that thrashes decodes
// every request again. See DESIGN.md §8.
const memoFactor = 4

// New builds a Server from cfg (zero value is fine).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	root, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		gate:   parallel.NewGate(cfg.MaxInflight),
		client: &http.Client{},
		root:   root,
		stop:   stop,
		mux:    http.NewServeMux(),
	}
	s.store = store.New(store.Config{
		Base:     root,
		Capacity: cfg.CacheSize,
		Self:     cfg.Self,
		Peers:    cfg.Peers,
	})
	s.memo = store.New(store.Config{Capacity: memoFactor * cfg.CacheSize})
	s.docs = store.New(store.Config{Capacity: cfg.CacheSize})
	s.relaySeq.Store(splitmix64(hashSeed(cfg.Self)))
	s.breaker = newBreaker(breakerThreshold, breakerCooldown)
	// One process-wide warm store: sensitivity queries across requests
	// warm-start each other's probes (purely an optimization — responses
	// are byte-identical whether the store is hot or cold).
	s.warm = repro.NewSensitivityWarmStore()
	s.met = newMetrics(s.gate.InUse)
	s.met.breakerOpen = s.breaker.openCount
	s.met.breakerTrips = s.breaker.tripCount
	s.met.storeStats = s.store.Stats
	s.met.membership = s.store.Membership
	s.met.warmStats = func() (hits, misses, injected int64) {
		st := s.warm.Stats()
		return st.Hits, st.Misses, st.Injected
	}

	for name, ep := range endpoints {
		s.mux.HandleFunc("POST "+ep.path, func(w http.ResponseWriter, r *http.Request) { s.serve(w, r, name, ep) })
	}
	s.mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	s.mux.HandleFunc("POST /v1/cluster/join", s.handleClusterJoin)
	s.mux.HandleFunc("POST /v1/cluster/leave", s.handleClusterLeave)
	s.mux.HandleFunc("GET /v1/cluster", s.handleClusterGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Active health checking runs whenever this replica has a fleet
	// identity, even if the initial membership is single-node — a later
	// /v1/cluster/join must get probing without a restart.
	if cfg.Self != "" && cfg.HeartbeatInterval > 0 {
		s.hb = newHeartbeat(s.store, s.met, cfg.HeartbeatInterval,
			cfg.HeartbeatDownAfter, cfg.HeartbeatUpAfter, hashSeed(cfg.Self))
		s.hb.probe = s.probePeer
		s.hbStopped = make(chan struct{})
		go s.heartbeatLoop()
	}
	return s, nil
}

// hashSeed derives a stable per-identity seed for the jitter streams
// (FNV-1a 64 over the replica's name).
func hashSeed(name string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// Handler returns the service's HTTP handler. While draining, new
// analysis requests are refused with 503 + Retry-After (health and
// metrics stay reachable so orchestrators can watch the drain).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && len(r.URL.Path) >= 4 && r.URL.Path[:4] == "/v1/" {
			s.refuseDraining(w, "draining")
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// StartDrain puts the server into draining mode: new analysis requests
// are refused with 503 + Retry-After, while in-flight ones continue.
// The caller (cmd/twca-serve) follows with http.Server.Shutdown bounded
// by Config.DrainTimeout and calls Close when the bound expires, which
// cancels the stragglers — their requests also answer 503. Peers that
// relay to a draining replica treat the 503 as peer_unavailable and
// fall back, so a rolling restart drains out of the fleet
// automatically. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// refuseDraining answers one request refused by the drain gate.
func (s *Server) refuseDraining(w http.ResponseWriter, endpoint string) {
	w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.DrainTimeout))
	s.met.request(endpoint, http.StatusServiceUnavailable)
	s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		SchemaVersion: schema.Version,
		Error:         "service is draining for shutdown; retry against a healthy instance",
		Kind:          "draining",
	})
}

// Close cancels the server's root context: in-flight analyses stop at
// their next cooperative check and their requests fail with the
// cancellation mapping (or 503 when draining). It then waits for the
// heartbeat loop to exit and cancels the store's pending down-cooldown
// timers. Idempotent.
func (s *Server) Close() {
	s.stop()
	if s.hbStopped != nil {
		<-s.hbStopped
	}
	s.store.Close()
}

// StoreStats exposes the artifact store's counters (cluster tests and
// smoke tooling read them without scraping /metrics).
func (s *Server) StoreStats() store.Stats { return s.store.Stats() }
