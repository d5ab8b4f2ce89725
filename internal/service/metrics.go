package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// metrics is the service's observability surface, exposed in
// Prometheus text exposition format at /metrics. It is deliberately
// dependency-free: atomic counters, a few mutex-guarded labelled maps
// and fixed-bucket histograms cover request accounting, cache
// effectiveness and analysis cost without pulling a client library
// into the module. Call sites Add to the counters directly.
type metrics struct {
	start time.Time

	// cache effectiveness: a hit answered from the LRU, a miss ran the
	// analysis, a coalesced request piggybacked on an in-flight one, a
	// peer outcome was relayed to (and answered by) the replica owning
	// the model hash.
	cacheHits, cacheMisses, cacheCoalesced, cachePeer atomic.Int64
	// system digest memo: a hit resolved the system's hash without
	// parsing it, a miss parsed the system.
	memoHits, memoMisses atomic.Int64
	// campaign item outcomes: ok lines versus campaign_partial lines
	// across all /v1/campaign streams.
	campaignOK, campaignFailed atomic.Int64
	// ilpNodes accumulates branch-and-bound nodes across all DMM
	// queries — the "how hard is the solver working" counter.
	ilpNodes atomic.Int64
	// sensitivity effort: bisectionSteps accumulates predicate
	// evaluations across sensitivity queries, sensProbes the
	// perturbed-system analyses they requested, and the probe cache
	// counters split those by how the shared artifact cache answered
	// (probes on unhashable perturbations bypass the cache and appear in
	// no outcome bucket).
	bisectionSteps                         atomic.Int64
	sensProbes                             atomic.Int64
	probeHits, probeMisses, probeCoalesced atomic.Int64
	// workerPanics counts analyses that failed because a worker task
	// panicked (recovered to an error; the process survived).
	workerPanics atomic.Int64
	// fleet relay resilience counters: retries walked to the next ring
	// arc, hedged attempts launched and won (the hedge, not the primary,
	// resolved the race), responses truncated mid-stream by a dying
	// peer, and 429 throttles propagated instead of being treated as
	// peer death.
	relayRetries, relayHedges, relayHedgeWins atomic.Int64
	relayTruncations, relayThrottles          atomic.Int64
	// heartbeat prober counters: probes by result and up/down state
	// transitions driven into the store.
	heartbeatOK, heartbeatFail   atomic.Int64
	heartbeatUps, heartbeatDowns atomic.Int64
	// propagationFailures counts members that could not be told about
	// a membership mutation (best-effort; the loop guard keeps the stale
	// view safe).
	propagationFailures atomic.Int64

	mu sync.Mutex
	// requests counts finished HTTP requests by "endpoint|status".
	requests map[string]int64
	// degradedResults counts responses answered below Exact quality,
	// keyed by the exhausted budget ("deadline", "ilp-nodes",
	// "combinations", "breaker", ...).
	degradedResults map[string]int64
	// membershipChanges counts applied cluster mutations by endpoint.
	membershipChanges map[string]int64
	// analysis duration histograms by kind ("dmm", "latency",
	// "sensitivity").
	durations map[string]*histogram

	// membership samples the store's versioned membership view at
	// scrape time (nil on a single-node service).
	membership func() store.Membership
	// inflight is sampled from the admission gate at scrape time.
	inflight func() int
	// breakerOpen/breakerTrips are sampled from the per-system circuit
	// breaker at scrape time.
	breakerOpen  func() int
	breakerTrips func() int64
	// storeStats is sampled from the two-tier artifact store at scrape
	// time (local LRU counters plus fleet routing counters).
	storeStats func() store.Stats
	// warmStats is sampled from the process-wide sensitivity warm store
	// at scrape time: hits are probes answered from a stored artifact at
	// the exact perturbation coordinate (they never reach the artifact
	// cache), misses fell through to a cold or warm-seeded solve, and
	// injected counts fault-injected store outages (see
	// faultinject.PointSensitivityWarmStore).
	warmStats func() (hits, misses, injected int64)
}

func newMetrics(inflight func() int) *metrics {
	return &metrics{
		start:             time.Now(),
		requests:          make(map[string]int64),
		durations:         make(map[string]*histogram),
		degradedResults:   make(map[string]int64),
		membershipChanges: make(map[string]int64),
		inflight:          inflight,
	}
}

// histogram is a fixed-bucket cumulative histogram of seconds.
type histogram struct {
	counts [len(histBuckets) + 1]int64 // +1 for the +Inf bucket
	sum    float64
	total  int64
}

// histBuckets spans 100µs (a cache-hit response) to 10s (a pathological
// combination space), upper bounds in seconds.
var histBuckets = [...]float64{0.0001, 0.001, 0.01, 0.1, 1, 10}

func (h *histogram) observe(seconds float64) {
	i := 0
	for ; i < len(histBuckets); i++ {
		if seconds <= histBuckets[i] {
			break
		}
	}
	h.counts[i]++
	h.sum += seconds
	h.total++
}

func (m *metrics) request(endpoint string, status int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[endpoint+"|"+strconv.Itoa(status)]++
}

func (m *metrics) cacheOutcome(state string) {
	switch state {
	case store.OutcomeHit:
		m.cacheHits.Add(1)
	case store.OutcomeMiss:
		m.cacheMisses.Add(1)
	case store.OutcomeCoalesced:
		m.cacheCoalesced.Add(1)
	case store.OutcomePeer:
		m.cachePeer.Add(1)
	}
}

func (m *metrics) observeAnalysis(kind string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.durations[kind]
	if h == nil {
		h = &histogram{}
		m.durations[kind] = h
	}
	h.observe(d.Seconds())
}

// sensitivityProbe accounts one perturbed-system analysis requested by a
// sensitivity query; state is the artifact-cache outcome, or "" when the
// probe bypassed the cache.
func (m *metrics) sensitivityProbe(state string) {
	m.sensProbes.Add(1)
	switch state {
	case store.OutcomeHit:
		m.probeHits.Add(1)
	case store.OutcomeMiss:
		m.probeMisses.Add(1)
	case store.OutcomeCoalesced:
		m.probeCoalesced.Add(1)
	}
}

// degraded accounts n results answered below Exact quality under the
// named exhausted budget.
func (m *metrics) degraded(budget string, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.degradedResults[budget] += n
}

// membershipChange accounts one applied cluster mutation by endpoint
// ("cluster_join"/"cluster_leave").
func (m *metrics) membershipChange(endpoint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.membershipChanges[endpoint]++
}

// write renders the Prometheus text exposition. Keys are emitted in
// sorted order so scrapes (and tests) are deterministic.
func (m *metrics) write(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP twca_uptime_seconds Time since the service started.\n")
	fmt.Fprintf(w, "# TYPE twca_uptime_seconds gauge\n")
	fmt.Fprintf(w, "twca_uptime_seconds %g\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP twca_requests_total Finished HTTP requests by endpoint and status.\n")
	fmt.Fprintf(w, "# TYPE twca_requests_total counter\n")
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		endpoint, status := k, ""
		for i := range k {
			if k[i] == '|' {
				endpoint, status = k[:i], k[i+1:]
				break
			}
		}
		fmt.Fprintf(w, "twca_requests_total{endpoint=%q,status=%q} %d\n", endpoint, status, m.requests[k])
	}

	fmt.Fprintf(w, "# HELP twca_cache_requests_total Analysis cache lookups by outcome.\n")
	fmt.Fprintf(w, "# TYPE twca_cache_requests_total counter\n")
	hits, misses, coalesced := m.cacheHits.Load(), m.cacheMisses.Load(), m.cacheCoalesced.Load()
	fmt.Fprintf(w, "twca_cache_requests_total{outcome=\"hit\"} %d\n", hits)
	fmt.Fprintf(w, "twca_cache_requests_total{outcome=\"miss\"} %d\n", misses)
	fmt.Fprintf(w, "twca_cache_requests_total{outcome=\"coalesced\"} %d\n", coalesced)
	fmt.Fprintf(w, "twca_cache_requests_total{outcome=\"peer\"} %d\n", m.cachePeer.Load())

	total := hits + misses + coalesced
	ratio := 0.0
	if total > 0 {
		ratio = float64(hits) / float64(total)
	}
	fmt.Fprintf(w, "# HELP twca_cache_hit_ratio Fraction of cacheable requests answered from the LRU.\n")
	fmt.Fprintf(w, "# TYPE twca_cache_hit_ratio gauge\n")
	fmt.Fprintf(w, "twca_cache_hit_ratio %g\n", ratio)

	fmt.Fprintf(w, "# HELP twca_system_memo_total System hash resolutions by digest memo outcome (a miss parsed the system).\n")
	fmt.Fprintf(w, "# TYPE twca_system_memo_total counter\n")
	fmt.Fprintf(w, "twca_system_memo_total{outcome=\"hit\"} %d\n", m.memoHits.Load())
	fmt.Fprintf(w, "twca_system_memo_total{outcome=\"miss\"} %d\n", m.memoMisses.Load())

	if m.storeStats != nil {
		st := m.storeStats()
		fmt.Fprintf(w, "# HELP twca_store_local_hits_total Artifact requests answered from this replica's LRU.\n")
		fmt.Fprintf(w, "# TYPE twca_store_local_hits_total counter\n")
		fmt.Fprintf(w, "twca_store_local_hits_total %d\n", st.Hits)
		fmt.Fprintf(w, "# HELP twca_store_misses_total Artifact requests that ran an analysis on this replica.\n")
		fmt.Fprintf(w, "# TYPE twca_store_misses_total counter\n")
		fmt.Fprintf(w, "twca_store_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "# HELP twca_store_shared_hits_total Requests this replica served to peers as the artifact owner.\n")
		fmt.Fprintf(w, "# TYPE twca_store_shared_hits_total counter\n")
		fmt.Fprintf(w, "twca_store_shared_hits_total %d\n", st.SharedServes)
		fmt.Fprintf(w, "# HELP twca_store_peer_hits_total Requests this replica relayed to the owning peer and got answered.\n")
		fmt.Fprintf(w, "# TYPE twca_store_peer_hits_total counter\n")
		fmt.Fprintf(w, "twca_store_peer_hits_total %d\n", st.PeerHits)
		fmt.Fprintf(w, "# HELP twca_store_peer_unavailable_total Relays that failed because the owning peer was unreachable or refusing.\n")
		fmt.Fprintf(w, "# TYPE twca_store_peer_unavailable_total counter\n")
		fmt.Fprintf(w, "twca_store_peer_unavailable_total %d\n", st.PeerUnavailable)
		fmt.Fprintf(w, "# HELP twca_store_local_fallbacks_total Requests computed locally after their owning peer was unreachable.\n")
		fmt.Fprintf(w, "# TYPE twca_store_local_fallbacks_total counter\n")
		fmt.Fprintf(w, "twca_store_local_fallbacks_total %d\n", st.LocalFallbacks)
	}

	fmt.Fprintf(w, "# HELP twca_campaign_items_total Streamed campaign lines by result.\n")
	fmt.Fprintf(w, "# TYPE twca_campaign_items_total counter\n")
	fmt.Fprintf(w, "twca_campaign_items_total{result=\"ok\"} %d\n", m.campaignOK.Load())
	fmt.Fprintf(w, "twca_campaign_items_total{result=\"partial\"} %d\n", m.campaignFailed.Load())

	fmt.Fprintf(w, "# HELP twca_ilp_nodes_total Branch-and-bound nodes explored by DMM queries.\n")
	fmt.Fprintf(w, "# TYPE twca_ilp_nodes_total counter\n")
	fmt.Fprintf(w, "twca_ilp_nodes_total %d\n", m.ilpNodes.Load())

	fmt.Fprintf(w, "# HELP twca_sensitivity_bisection_steps_total Predicate evaluations across sensitivity bisection searches.\n")
	fmt.Fprintf(w, "# TYPE twca_sensitivity_bisection_steps_total counter\n")
	fmt.Fprintf(w, "twca_sensitivity_bisection_steps_total %d\n", m.bisectionSteps.Load())

	fmt.Fprintf(w, "# HELP twca_sensitivity_probes_total Perturbed-system analyses requested by sensitivity queries.\n")
	fmt.Fprintf(w, "# TYPE twca_sensitivity_probes_total counter\n")
	fmt.Fprintf(w, "twca_sensitivity_probes_total %d\n", m.sensProbes.Load())

	fmt.Fprintf(w, "# HELP twca_sensitivity_probe_cache_total Sensitivity probe lookups in the shared artifact cache by outcome.\n")
	fmt.Fprintf(w, "# TYPE twca_sensitivity_probe_cache_total counter\n")
	fmt.Fprintf(w, "twca_sensitivity_probe_cache_total{outcome=\"hit\"} %d\n", m.probeHits.Load())
	fmt.Fprintf(w, "twca_sensitivity_probe_cache_total{outcome=\"miss\"} %d\n", m.probeMisses.Load())
	fmt.Fprintf(w, "twca_sensitivity_probe_cache_total{outcome=\"coalesced\"} %d\n", m.probeCoalesced.Load())

	if m.warmStats != nil {
		hits, misses, injected := m.warmStats()
		fmt.Fprintf(w, "# HELP twca_sensitivity_warm_store_total Warm-store lookups by sensitivity probes, by outcome.\n")
		fmt.Fprintf(w, "# TYPE twca_sensitivity_warm_store_total counter\n")
		fmt.Fprintf(w, "twca_sensitivity_warm_store_total{outcome=\"hit\"} %d\n", hits)
		fmt.Fprintf(w, "twca_sensitivity_warm_store_total{outcome=\"miss\"} %d\n", misses)
		fmt.Fprintf(w, "twca_sensitivity_warm_store_total{outcome=\"injected\"} %d\n", injected)
	}

	fmt.Fprintf(w, "# HELP twca_degraded_results_total Results answered below exact quality, by exhausted budget.\n")
	fmt.Fprintf(w, "# TYPE twca_degraded_results_total counter\n")
	budgets := make([]string, 0, len(m.degradedResults))
	for b := range m.degradedResults {
		budgets = append(budgets, b)
	}
	sort.Strings(budgets)
	for _, b := range budgets {
		fmt.Fprintf(w, "twca_degraded_results_total{budget=%q} %d\n", b, m.degradedResults[b])
	}

	fmt.Fprintf(w, "# HELP twca_worker_panics_total Analyses failed by a recovered worker-task panic.\n")
	fmt.Fprintf(w, "# TYPE twca_worker_panics_total counter\n")
	fmt.Fprintf(w, "twca_worker_panics_total %d\n", m.workerPanics.Load())

	fmt.Fprintf(w, "# HELP twca_fleet_relay_retries_total Relay attempts retried onto the next ring arc.\n")
	fmt.Fprintf(w, "# TYPE twca_fleet_relay_retries_total counter\n")
	fmt.Fprintf(w, "twca_fleet_relay_retries_total %d\n", m.relayRetries.Load())

	fmt.Fprintf(w, "# HELP twca_fleet_relay_hedges_total Hedged relay attempts by outcome.\n")
	fmt.Fprintf(w, "# TYPE twca_fleet_relay_hedges_total counter\n")
	fmt.Fprintf(w, "twca_fleet_relay_hedges_total{outcome=\"launched\"} %d\n", m.relayHedges.Load())
	fmt.Fprintf(w, "twca_fleet_relay_hedges_total{outcome=\"won\"} %d\n", m.relayHedgeWins.Load())

	fmt.Fprintf(w, "# HELP twca_fleet_relay_truncated_total Relayed responses cut off mid-stream by a dying peer.\n")
	fmt.Fprintf(w, "# TYPE twca_fleet_relay_truncated_total counter\n")
	fmt.Fprintf(w, "twca_fleet_relay_truncated_total %d\n", m.relayTruncations.Load())

	fmt.Fprintf(w, "# HELP twca_fleet_relay_throttled_total Relays answered 429 by a live peer (propagated, not a failure).\n")
	fmt.Fprintf(w, "# TYPE twca_fleet_relay_throttled_total counter\n")
	fmt.Fprintf(w, "twca_fleet_relay_throttled_total %d\n", m.relayThrottles.Load())

	fmt.Fprintf(w, "# HELP twca_heartbeat_probes_total Peer health probes by result.\n")
	fmt.Fprintf(w, "# TYPE twca_heartbeat_probes_total counter\n")
	fmt.Fprintf(w, "twca_heartbeat_probes_total{result=\"ok\"} %d\n", m.heartbeatOK.Load())
	fmt.Fprintf(w, "twca_heartbeat_probes_total{result=\"fail\"} %d\n", m.heartbeatFail.Load())

	fmt.Fprintf(w, "# HELP twca_heartbeat_transitions_total Probe-driven peer state transitions.\n")
	fmt.Fprintf(w, "# TYPE twca_heartbeat_transitions_total counter\n")
	fmt.Fprintf(w, "twca_heartbeat_transitions_total{to=\"up\"} %d\n", m.heartbeatUps.Load())
	fmt.Fprintf(w, "twca_heartbeat_transitions_total{to=\"down\"} %d\n", m.heartbeatDowns.Load())

	fmt.Fprintf(w, "# HELP twca_cluster_membership_changes_total Applied cluster membership mutations by endpoint.\n")
	fmt.Fprintf(w, "# TYPE twca_cluster_membership_changes_total counter\n")
	endpoints := make([]string, 0, len(m.membershipChanges))
	for e := range m.membershipChanges {
		endpoints = append(endpoints, e)
	}
	sort.Strings(endpoints)
	for _, e := range endpoints {
		fmt.Fprintf(w, "twca_cluster_membership_changes_total{endpoint=%q} %d\n", e, m.membershipChanges[e])
	}

	fmt.Fprintf(w, "# HELP twca_cluster_propagation_failures_total Members unreachable during best-effort mutation propagation.\n")
	fmt.Fprintf(w, "# TYPE twca_cluster_propagation_failures_total counter\n")
	fmt.Fprintf(w, "twca_cluster_propagation_failures_total %d\n", m.propagationFailures.Load())

	if m.membership != nil {
		mb := m.membership()
		fmt.Fprintf(w, "# HELP twca_cluster_membership_version Monotonic version of this replica's membership view.\n")
		fmt.Fprintf(w, "# TYPE twca_cluster_membership_version gauge\n")
		fmt.Fprintf(w, "twca_cluster_membership_version %d\n", mb.Version)
		fmt.Fprintf(w, "# HELP twca_cluster_peers Members of this replica's ring view by state.\n")
		fmt.Fprintf(w, "# TYPE twca_cluster_peers gauge\n")
		fmt.Fprintf(w, "twca_cluster_peers{state=\"up\"} %d\n", len(mb.Peers)-len(mb.Down))
		fmt.Fprintf(w, "twca_cluster_peers{state=\"down\"} %d\n", len(mb.Down))
	}

	if m.breakerTrips != nil {
		fmt.Fprintf(w, "# HELP twca_breaker_trips_total Budget-tripped analyses recorded by the per-system circuit breaker.\n")
		fmt.Fprintf(w, "# TYPE twca_breaker_trips_total counter\n")
		fmt.Fprintf(w, "twca_breaker_trips_total %d\n", m.breakerTrips())
	}
	if m.breakerOpen != nil {
		fmt.Fprintf(w, "# HELP twca_breaker_open Systems whose circuit breaker is currently open.\n")
		fmt.Fprintf(w, "# TYPE twca_breaker_open gauge\n")
		fmt.Fprintf(w, "twca_breaker_open %d\n", m.breakerOpen())
	}

	if m.inflight != nil {
		fmt.Fprintf(w, "# HELP twca_analyses_inflight Analyses currently holding an admission slot.\n")
		fmt.Fprintf(w, "# TYPE twca_analyses_inflight gauge\n")
		fmt.Fprintf(w, "twca_analyses_inflight %d\n", m.inflight())
	}

	fmt.Fprintf(w, "# HELP twca_analysis_duration_seconds End-to-end analysis time by kind.\n")
	fmt.Fprintf(w, "# TYPE twca_analysis_duration_seconds histogram\n")
	kinds := make([]string, 0, len(m.durations))
	for k := range m.durations {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		h := m.durations[kind]
		cum := int64(0)
		for i, ub := range histBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "twca_analysis_duration_seconds_bucket{kind=%q,le=%q} %d\n", kind, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.counts[len(histBuckets)]
		fmt.Fprintf(w, "twca_analysis_duration_seconds_bucket{kind=%q,le=\"+Inf\"} %d\n", kind, cum)
		fmt.Fprintf(w, "twca_analysis_duration_seconds_sum{kind=%q} %g\n", kind, h.sum)
		fmt.Fprintf(w, "twca_analysis_duration_seconds_count{kind=%q} %d\n", kind, h.total)
	}
}
