package service

import (
	"io"
	"net/http"
	"regexp"
	"testing"
)

// timedMetric matches the exposition values that depend on the clock:
// the uptime gauge and the analysis-duration sums and finite buckets.
// Their series names stay in the text; only the values are masked.
var timedMetric = regexp.MustCompile(`(?m)^(twca_uptime_seconds|twca_analysis_duration_seconds_sum\{[^}]*\}|twca_analysis_duration_seconds_bucket\{kind="[a-z]+",le="[0-9.e-]+"\}) .*$`)

// TestMetricsExposition pins the whole /metrics text after a fixed,
// sequential mix of traffic: every series name, label, order and
// counter value. twcabench and dashboards parse these names, so any
// change to the exposition must show up here.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sys := thalesJSON(t)
	dmm := analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1, 10}}
	post(t, ts.URL+"/v1/analyze/dmm", dmm)
	post(t, ts.URL+"/v1/analyze/dmm", dmm)
	post(t, ts.URL+"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "nope"})
	post(t, ts.URL+"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{10},
		Options: reqOptions{MaxCombinations: 1}})
	post(t, ts.URL+"/v1/analyze/latency", analyzeRequest{System: sys, Chain: "sigma_d"})
	post(t, ts.URL+"/v1/verify", analyzeRequest{System: sys, Chain: "sigma_c",
		Constraints: []wireConstraint{{M: 5, K: 10}}})
	post(t, ts.URL+"/v1/analyze/sensitivity", analyzeRequest{System: sys, Chain: "sigma_c",
		Sensitivity: &reqSensitivity{M: 5, K: 10, Tasks: []string{"tau3c"}}})
	postCampaign(t, ts.URL, campaignRequest{Items: []campaignItem{
		{analyzeRequest: dmm},
		{Kind: "latency", analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_d"}},
		{analyzeRequest: analyzeRequest{System: sys, Chain: "nope"}},
	}})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := timedMetric.ReplaceAllString(string(raw), "$1 <masked>")
	if got != wantExposition {
		t.Errorf("/metrics exposition changed:\n--- got ---\n%s--- want ---\n%s", got, wantExposition)
	}
}

const wantExposition = `# HELP twca_uptime_seconds Time since the service started.
# TYPE twca_uptime_seconds gauge
twca_uptime_seconds <masked>
# HELP twca_requests_total Finished HTTP requests by endpoint and status.
# TYPE twca_requests_total counter
twca_requests_total{endpoint="campaign",status="200"} 1
twca_requests_total{endpoint="dmm",status="200"} 3
twca_requests_total{endpoint="dmm",status="404"} 1
twca_requests_total{endpoint="latency",status="200"} 1
twca_requests_total{endpoint="metrics",status="200"} 1
twca_requests_total{endpoint="sensitivity",status="200"} 1
twca_requests_total{endpoint="verify",status="200"} 1
# HELP twca_cache_requests_total Analysis cache lookups by outcome.
# TYPE twca_cache_requests_total counter
twca_cache_requests_total{outcome="hit"} 4
twca_cache_requests_total{outcome="miss"} 6
twca_cache_requests_total{outcome="coalesced"} 0
twca_cache_requests_total{outcome="peer"} 0
# HELP twca_cache_hit_ratio Fraction of cacheable requests answered from the LRU.
# TYPE twca_cache_hit_ratio gauge
twca_cache_hit_ratio 0.4
# HELP twca_system_memo_total System hash resolutions by digest memo outcome (a miss parsed the system).
# TYPE twca_system_memo_total counter
twca_system_memo_total{outcome="hit"} 9
twca_system_memo_total{outcome="miss"} 1
# HELP twca_store_local_hits_total Artifact requests answered from this replica's LRU.
# TYPE twca_store_local_hits_total counter
twca_store_local_hits_total 5
# HELP twca_store_misses_total Artifact requests that ran an analysis on this replica.
# TYPE twca_store_misses_total counter
twca_store_misses_total 104
# HELP twca_store_shared_hits_total Requests this replica served to peers as the artifact owner.
# TYPE twca_store_shared_hits_total counter
twca_store_shared_hits_total 0
# HELP twca_store_peer_hits_total Requests this replica relayed to the owning peer and got answered.
# TYPE twca_store_peer_hits_total counter
twca_store_peer_hits_total 0
# HELP twca_store_peer_unavailable_total Relays that failed because the owning peer was unreachable or refusing.
# TYPE twca_store_peer_unavailable_total counter
twca_store_peer_unavailable_total 0
# HELP twca_store_local_fallbacks_total Requests computed locally after their owning peer was unreachable.
# TYPE twca_store_local_fallbacks_total counter
twca_store_local_fallbacks_total 0
# HELP twca_campaign_items_total Streamed campaign lines by result.
# TYPE twca_campaign_items_total counter
twca_campaign_items_total{result="ok"} 2
twca_campaign_items_total{result="partial"} 1
# HELP twca_ilp_nodes_total Branch-and-bound nodes explored by DMM queries.
# TYPE twca_ilp_nodes_total counter
twca_ilp_nodes_total 17
# HELP twca_sensitivity_bisection_steps_total Predicate evaluations across sensitivity bisection searches.
# TYPE twca_sensitivity_bisection_steps_total counter
twca_sensitivity_bisection_steps_total 112
# HELP twca_sensitivity_probes_total Perturbed-system analyses requested by sensitivity queries.
# TYPE twca_sensitivity_probes_total counter
twca_sensitivity_probes_total 99
# HELP twca_sensitivity_probe_cache_total Sensitivity probe lookups in the shared artifact cache by outcome.
# TYPE twca_sensitivity_probe_cache_total counter
twca_sensitivity_probe_cache_total{outcome="hit"} 1
twca_sensitivity_probe_cache_total{outcome="miss"} 98
twca_sensitivity_probe_cache_total{outcome="coalesced"} 0
# HELP twca_sensitivity_warm_store_total Warm-store lookups by sensitivity probes, by outcome.
# TYPE twca_sensitivity_warm_store_total counter
twca_sensitivity_warm_store_total{outcome="hit"} 0
twca_sensitivity_warm_store_total{outcome="miss"} 113
twca_sensitivity_warm_store_total{outcome="injected"} 0
# HELP twca_degraded_results_total Results answered below exact quality, by exhausted budget.
# TYPE twca_degraded_results_total counter
twca_degraded_results_total{budget="combinations"} 1
twca_degraded_results_total{budget="fixed-point"} 1
# HELP twca_worker_panics_total Analyses failed by a recovered worker-task panic.
# TYPE twca_worker_panics_total counter
twca_worker_panics_total 0
# HELP twca_fleet_relay_retries_total Relay attempts retried onto the next ring arc.
# TYPE twca_fleet_relay_retries_total counter
twca_fleet_relay_retries_total 0
# HELP twca_fleet_relay_hedges_total Hedged relay attempts by outcome.
# TYPE twca_fleet_relay_hedges_total counter
twca_fleet_relay_hedges_total{outcome="launched"} 0
twca_fleet_relay_hedges_total{outcome="won"} 0
# HELP twca_fleet_relay_truncated_total Relayed responses cut off mid-stream by a dying peer.
# TYPE twca_fleet_relay_truncated_total counter
twca_fleet_relay_truncated_total 0
# HELP twca_fleet_relay_throttled_total Relays answered 429 by a live peer (propagated, not a failure).
# TYPE twca_fleet_relay_throttled_total counter
twca_fleet_relay_throttled_total 0
# HELP twca_heartbeat_probes_total Peer health probes by result.
# TYPE twca_heartbeat_probes_total counter
twca_heartbeat_probes_total{result="ok"} 0
twca_heartbeat_probes_total{result="fail"} 0
# HELP twca_heartbeat_transitions_total Probe-driven peer state transitions.
# TYPE twca_heartbeat_transitions_total counter
twca_heartbeat_transitions_total{to="up"} 0
twca_heartbeat_transitions_total{to="down"} 0
# HELP twca_cluster_membership_changes_total Applied cluster membership mutations by endpoint.
# TYPE twca_cluster_membership_changes_total counter
# HELP twca_cluster_propagation_failures_total Members unreachable during best-effort mutation propagation.
# TYPE twca_cluster_propagation_failures_total counter
twca_cluster_propagation_failures_total 0
# HELP twca_cluster_membership_version Monotonic version of this replica's membership view.
# TYPE twca_cluster_membership_version gauge
twca_cluster_membership_version 0
# HELP twca_cluster_peers Members of this replica's ring view by state.
# TYPE twca_cluster_peers gauge
twca_cluster_peers{state="up"} 0
twca_cluster_peers{state="down"} 0
# HELP twca_breaker_trips_total Budget-tripped analyses recorded by the per-system circuit breaker.
# TYPE twca_breaker_trips_total counter
twca_breaker_trips_total 1
# HELP twca_breaker_open Systems whose circuit breaker is currently open.
# TYPE twca_breaker_open gauge
twca_breaker_open 0
# HELP twca_analyses_inflight Analyses currently holding an admission slot.
# TYPE twca_analyses_inflight gauge
twca_analyses_inflight 0
# HELP twca_analysis_duration_seconds End-to-end analysis time by kind.
# TYPE twca_analysis_duration_seconds histogram
twca_analysis_duration_seconds_bucket{kind="dmm",le="0.0001"} <masked>
twca_analysis_duration_seconds_bucket{kind="dmm",le="0.001"} <masked>
twca_analysis_duration_seconds_bucket{kind="dmm",le="0.01"} <masked>
twca_analysis_duration_seconds_bucket{kind="dmm",le="0.1"} <masked>
twca_analysis_duration_seconds_bucket{kind="dmm",le="1"} <masked>
twca_analysis_duration_seconds_bucket{kind="dmm",le="10"} <masked>
twca_analysis_duration_seconds_bucket{kind="dmm",le="+Inf"} 4
twca_analysis_duration_seconds_sum{kind="dmm"} <masked>
twca_analysis_duration_seconds_count{kind="dmm"} 4
twca_analysis_duration_seconds_bucket{kind="latency",le="0.0001"} <masked>
twca_analysis_duration_seconds_bucket{kind="latency",le="0.001"} <masked>
twca_analysis_duration_seconds_bucket{kind="latency",le="0.01"} <masked>
twca_analysis_duration_seconds_bucket{kind="latency",le="0.1"} <masked>
twca_analysis_duration_seconds_bucket{kind="latency",le="1"} <masked>
twca_analysis_duration_seconds_bucket{kind="latency",le="10"} <masked>
twca_analysis_duration_seconds_bucket{kind="latency",le="+Inf"} 1
twca_analysis_duration_seconds_sum{kind="latency"} <masked>
twca_analysis_duration_seconds_count{kind="latency"} 1
twca_analysis_duration_seconds_bucket{kind="sensitivity",le="0.0001"} <masked>
twca_analysis_duration_seconds_bucket{kind="sensitivity",le="0.001"} <masked>
twca_analysis_duration_seconds_bucket{kind="sensitivity",le="0.01"} <masked>
twca_analysis_duration_seconds_bucket{kind="sensitivity",le="0.1"} <masked>
twca_analysis_duration_seconds_bucket{kind="sensitivity",le="1"} <masked>
twca_analysis_duration_seconds_bucket{kind="sensitivity",le="10"} <masked>
twca_analysis_duration_seconds_bucket{kind="sensitivity",le="+Inf"} 1
twca_analysis_duration_seconds_sum{kind="sensitivity"} <masked>
twca_analysis_duration_seconds_count{kind="sensitivity"} 1
`
