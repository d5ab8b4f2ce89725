package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/store"
)

// cluster is an in-process fleet: n real Servers, each fronted by a
// real httptest listener, all configured with the same peer set so the
// consistent-hash ring shards artifact ownership across them. The
// handler indirection (atomic.Value) exists because each Server's
// Config needs every listener URL before the Server can be built — and
// because chaos tests swap a replica's handler for a corpse mid-run.
type cluster struct {
	svcs     []*Server
	servers  []*httptest.Server
	handlers []*atomic.Value // each always holds an http.HandlerFunc
}

// listener spawns one httptest server whose handler is swappable
// through the returned atomic.Value (chaos tests store a corpse there).
func clusterListener() (*httptest.Server, *atomic.Value) {
	hv := &atomic.Value{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _ := hv.Load().(http.HandlerFunc)
		if h == nil {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}))
	return ts, hv
}

func newCluster(t testing.TB, n int, cfg Config) *cluster {
	t.Helper()
	c := &cluster{
		svcs:     make([]*Server, n),
		servers:  make([]*httptest.Server, n),
		handlers: make([]*atomic.Value, n),
	}
	urls := make([]string, n)
	for i := range c.servers {
		c.servers[i], c.handlers[i] = clusterListener()
		urls[i] = c.servers[i].URL
	}
	for i := range c.svcs {
		rcfg := cfg
		rcfg.Self = urls[i]
		rcfg.Peers = urls
		svc, err := New(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		c.svcs[i] = svc
		c.handlers[i].Store(http.HandlerFunc(svc.Handler().ServeHTTP))
	}
	t.Cleanup(func() {
		// Ranges the slices at cleanup time, so replicas added by
		// expand() are torn down too.
		for i := range c.servers {
			c.servers[i].Close()
			c.svcs[i].Close()
		}
	})
	return c
}

// expand spins up one more replica whose own membership view already
// includes the whole fleet plus itself, the way an operator boots a
// joiner before POSTing /v1/cluster/join to a member. It does NOT
// touch the existing replicas' rings — that is the join call's job.
func (c *cluster) expand(t testing.TB, cfg Config) int {
	t.Helper()
	ts, hv := clusterListener()
	peers := make([]string, 0, len(c.servers)+1)
	for _, s := range c.servers {
		peers = append(peers, s.URL)
	}
	peers = append(peers, ts.URL)
	cfg.Self = ts.URL
	cfg.Peers = peers
	svc, err := New(cfg)
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	hv.Store(http.HandlerFunc(svc.Handler().ServeHTTP))
	c.svcs = append(c.svcs, svc)
	c.servers = append(c.servers, ts)
	c.handlers = append(c.handlers, hv)
	return len(c.svcs) - 1
}

func (c *cluster) url(i int) string { return c.servers[i].URL }

// kill makes replica i behave like a dead or draining node: existing
// connections are severed mid-flight and every new request answers 503.
// (A plain httptest Close would block on in-flight requests — a real
// crash does not wait politely.)
func (c *cluster) kill(i int) {
	c.handlers[i].Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "killed", http.StatusServiceUnavailable)
	}))
	c.servers[i].CloseClientConnections()
}

// fleetStats sums the store counters across every replica.
func (c *cluster) fleetStats() store.Stats {
	var sum store.Stats
	for _, svc := range c.svcs {
		st := svc.StoreStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Coalesced += st.Coalesced
		sum.PeerHits += st.PeerHits
		sum.SharedServes += st.SharedServes
		sum.PeerUnavailable += st.PeerUnavailable
		sum.LocalFallbacks += st.LocalFallbacks
	}
	return sum
}

// fleetSystems builds n distinct thales-scale systems: the case-study
// document with a perturbed sigma_d deadline (and name) per index, so
// every system hashes differently but costs a real analysis.
func fleetSystems(t testing.TB, n int) []json.RawMessage {
	t.Helper()
	base := thalesJSON(t)
	out := make([]json.RawMessage, n)
	for i := range out {
		var doc map[string]any
		if err := json.Unmarshal(base, &doc); err != nil {
			t.Fatal(err)
		}
		doc["name"] = fmt.Sprintf("thales-%03d", i)
		chains := doc["chains"].([]any)
		chain0 := chains[0].(map[string]any)
		chain0["deadline"] = 200 + float64(i)
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

func fleetCampaign(systems []json.RawMessage) campaignRequest {
	// A wide dmm sweep (80 points up to k≈160000) makes each cold item
	// a real analysis — tens of milliseconds — while the resulting
	// document stays small, so the warm path is dominated by cache
	// lookup and transport, not marshaling. That separation is what the
	// ≥10x warm-speedup assertion measures.
	ks := make([]int64, 80)
	for i := range ks {
		ks[i] = int64(i)*1997 + 1
	}
	items := make([]campaignItem, len(systems))
	for i, sys := range systems {
		items[i] = campaignItem{
			ID:             fmt.Sprintf("s%03d", i),
			analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c", K: ks},
		}
	}
	return campaignRequest{Items: items}
}

// runCampaign posts the campaign to a replica and returns the result
// lines (summary excluded, after checking it) plus the wall time.
func runCampaign(t testing.TB, url string, req campaignRequest) ([]schema.CampaignLine, time.Duration) {
	t.Helper()
	start := time.Now()
	status, lines := postCampaign(t, url, req)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("campaign status = %d", status)
	}
	if len(lines) != len(req.Items)+1 {
		t.Fatalf("campaign returned %d lines, want %d + summary", len(lines), len(req.Items))
	}
	sum := lines[len(req.Items)]
	if sum.Kind != schema.CampaignKindSummary || sum.Items != len(req.Items) {
		t.Fatalf("summary = %+v", sum)
	}
	return lines[:len(req.Items)], elapsed
}

// TestClusterSharing is the fleet acceptance test: a 50-system campaign
// against a 3-replica cluster computes every artifact exactly once
// fleet-wide (the store misses across all replicas account for each
// system once, with no duplicate computation on non-owners), and a warm
// repeat answers entirely from the sharded stores — at least 10x faster
// and with zero new computation.
func TestClusterSharing(t *testing.T) {
	// Hedging deliberately trades duplicate computation for tail
	// latency (a hedged attempt lands on a non-owner, which computes
	// the artifact itself), so it is disabled here: this test pins the
	// exactly-once property of the un-hedged fleet. The hedge path has
	// its own pin in TestClusterRelayHedge.
	c := newCluster(t, 3, Config{HedgeDelay: -1})
	req := fleetCampaign(fleetSystems(t, 50))

	lines, cold := runCampaign(t, c.url(0), req)
	hashes := map[string]bool{}
	for i, line := range lines {
		if line.Kind != schema.CampaignKindDMM || line.Analysis == nil {
			t.Fatalf("cold line %d = kind %q error %q", i, line.Kind, line.Error)
		}
		hashes[line.SystemHash] = true
	}
	if len(hashes) != len(req.Items) {
		t.Fatalf("only %d distinct system hashes across %d systems — fixture is degenerate", len(hashes), len(req.Items))
	}

	// Exactly-once: each system costs exactly one analysis-artifact
	// computation, on its owning replica only. (The rendered-document
	// sidecar is a Peek/Add cache and never counts a miss.) Any
	// duplicated computation — a non-owner analyzing instead of
	// relaying, or singleflight failing to coalesce — shows up here as
	// an extra miss.
	st := c.fleetStats()
	if want := int64(len(req.Items)); st.Misses != want {
		t.Errorf("fleet-wide misses = %d, want exactly %d (one artifact per system)", st.Misses, want)
	}
	if st.SharedServes == 0 || st.PeerHits == 0 {
		t.Errorf("no cross-replica traffic (shared %d, peer hits %d) — ring is not sharding", st.SharedServes, st.PeerHits)
	}
	if st.PeerUnavailable != 0 || st.LocalFallbacks != 0 {
		t.Errorf("healthy cluster recorded %d peer failures, %d local fallbacks", st.PeerUnavailable, st.LocalFallbacks)
	}

	// Warm repeat: zero new computation anywhere in the fleet, ≥10x
	// faster. Three runs, best time, to keep scheduler noise out of the
	// ratio; correctness assertions apply to every run.
	warm := time.Duration(1 << 62)
	for run := 0; run < 3; run++ {
		wlines, elapsed := runCampaign(t, c.url(0), req)
		if elapsed < warm {
			warm = elapsed
		}
		for i, line := range wlines {
			if line.Kind != schema.CampaignKindDMM || line.Analysis == nil {
				t.Fatalf("warm line %d = kind %q", i, line.Kind)
			}
			if line.Cache == string(store.OutcomeMiss) {
				t.Errorf("warm run %d line %d recomputed (cache=miss)", run, i)
			}
		}
	}
	if after := c.fleetStats(); after.Misses != st.Misses {
		t.Errorf("warm runs added %d misses — artifacts recomputed despite warm fleet", after.Misses-st.Misses)
	}
	if cold < 10*warm {
		t.Errorf("warm campaign %v is only %.1fx faster than cold %v, want ≥10x", warm, float64(cold)/float64(warm), cold)
	}
	t.Logf("cold %v, warm %v (%.0fx)", cold, warm, float64(cold)/float64(warm))
}

// TestClusterSingleflight: concurrent identical requests sprayed across
// every replica still compute the artifact exactly once — non-owners
// relay to the owner, and the owner's in-flight coalescing absorbs the
// stampede. This is the fleet-wide singleflight property.
func TestClusterSingleflight(t *testing.T) {
	// Hedging off for the same reason as TestClusterSharing: a hedge
	// fired during a slow cold solve would compute a duplicate on a
	// non-owner, and this test pins exactly-once.
	c := newCluster(t, 3, Config{HedgeDelay: -1})
	sys := thalesJSON(t)
	req := analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1, 10, 100}}

	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, doc := post(t, c.url(i%3)+"/v1/analyze/dmm", req)
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("request %d: status %d body %v", i, status, doc)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := c.fleetStats()
	if st.Misses != 1 {
		t.Errorf("fleet-wide misses = %d, want 1 (the artifact computed once, ever) — singleflight leaked", st.Misses)
	}
	if st.SharedServes == 0 {
		t.Error("owner served no relayed requests — everything computed locally")
	}
}

// TestClusterChaosKillReplica kills one replica mid-campaign and
// requires the stream to finish anyway with every document exactly
// right: items owned by the dead replica re-route (next ring arc or
// local compute), costing duplicated work but never a wrong or missing
// bound. Ground truth is the same campaign on an isolated single-node
// server — documents must match byte for byte.
func TestClusterChaosKillReplica(t *testing.T) {
	req := fleetCampaign(fleetSystems(t, 40))

	// Ground truth, computed before any chaos.
	_, truthTS := newTestServer(t, Config{})
	truth, _ := runCampaign(t, truthTS.URL, req)

	c := newCluster(t, 3, Config{CampaignWorkers: 2})
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.url(0)+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the first line — the campaign is demonstrably in flight —
	// then kill a replica that is not the one we are streaming from.
	reader := bufio.NewReader(resp.Body)
	first, err := reader.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	c.kill(1)

	rest, err := io.ReadAll(reader)
	if err != nil {
		t.Fatalf("stream died after replica kill: %v", err)
	}
	lines := decodeNDJSON(t, bytes.NewReader(append(first, rest...)))
	if len(lines) != len(req.Items)+1 {
		t.Fatalf("stream has %d lines, want %d + summary — items lost in the kill", len(lines), len(req.Items))
	}
	if sum := lines[len(req.Items)]; sum.Kind != schema.CampaignKindSummary || sum.Failed != 0 {
		t.Fatalf("summary = %+v, want zero failed items", sum)
	}
	for i, line := range lines[:len(req.Items)] {
		if line.Kind != schema.CampaignKindDMM || line.Analysis == nil {
			t.Fatalf("line %d = kind %q error %q cause %q", i, line.Kind, line.Error, line.Cause)
		}
		got, err := json.Marshal(*line.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(*truth[i].Analysis)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("item %d document differs from ground truth after replica kill:\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	// Observe the kill deterministically (whether the campaign itself
	// raced the kill is timing): restore the corpse into replica 0's
	// routing, then send one request it owns — the relay attempt must
	// fail, mark it down again, and still answer 200 via the next arc
	// or local fallback.
	c.svcs[0].store.MarkUp(c.url(1))
	before := c.svcs[0].StoreStats()
	probed := false
	for i, line := range lines[:len(req.Items)] {
		if owner, local := c.svcs[0].store.Route(routeKey(line.SystemHash)); !local && owner == c.url(1) {
			status, doc := post(t, c.url(0)+"/v1/analyze/dmm", req.Items[i].analyzeRequest)
			if status != http.StatusOK {
				t.Fatalf("request owned by dead replica answered %d %v — failover broken", status, doc)
			}
			probed = true
			break
		}
	}
	if !probed {
		t.Fatal("no campaign item routes to the killed replica — fixture is degenerate")
	}
	if st := c.svcs[0].StoreStats(); st.PeerUnavailable == before.PeerUnavailable {
		t.Error("no peer failure recorded for a relay to the killed replica")
	}
	if !c.svcs[0].store.Down(c.url(1)) {
		t.Error("killed replica not marked down after the failed relay")
	}
}

// envelopeLine matches the top-level envelope fields that legitimately
// differ between two answers to the same query: the artifact-store
// outcome and the wall time. MarshalIndent puts each top-level field on
// its own two-space-indented line.
var envelopeLine = regexp.MustCompile(`(?m)^  "(cache|elapsed_ms)": [^\n]*\n`)

// postRaw posts body and returns the status, the raw response bytes and
// the headers.
func postRaw(t testing.TB, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// TestClusterEndpointByteIdentity pins the fleet's transparency for
// every analysis endpoint: the same query answered by the replica that
// owns the system, by a non-owner (which relays it to the owner), and by
// an isolated single node yields byte-identical bodies once the cache
// outcome and wall time are removed — on a system digest memo miss and
// on a memo hit alike.
func TestClusterEndpointByteIdentity(t *testing.T) {
	c := newCluster(t, 3, Config{HedgeDelay: -1})
	_, single := newTestServer(t, Config{})
	sys := thalesJSON(t)
	for _, tc := range []struct {
		path string
		req  analyzeRequest
	}{
		{"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1, 3, 10, 100}}},
		{"/v1/analyze/latency", analyzeRequest{System: sys, Chain: "sigma_d"}},
		{"/v1/verify", analyzeRequest{System: sys, Chain: "sigma_c",
			Constraints: []wireConstraint{{M: 5, K: 10}, {M: 4, K: 10}}}},
		{"/v1/analyze/sensitivity", analyzeRequest{System: sys, Chain: "sigma_c",
			Sensitivity: &reqSensitivity{M: 5, K: 10, Tasks: []string{"tau3c"}}}},
	} {
		t.Run(tc.path, func(t *testing.T) {
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			status, want, _ := postRaw(t, single.URL+tc.path, body)
			if status != http.StatusOK {
				t.Fatalf("single node answered %d: %s", status, want)
			}
			var doc struct {
				SystemHash string `json:"system_hash"`
			}
			if err := json.Unmarshal(want, &doc); err != nil || doc.SystemHash == "" {
				t.Fatalf("single-node body has no system_hash (%v): %s", err, want)
			}
			owner, _ := c.svcs[0].store.Route(routeKey(doc.SystemHash))
			nonOwner := ""
			for i := range c.svcs {
				if c.url(i) != owner {
					nonOwner = c.url(i)
					break
				}
			}
			want = envelopeLine.ReplaceAll(want, nil)
			// Each target answers twice: the first resolves the system's
			// hash by parsing it, the repeat from the digest memo (on the
			// non-owner and, behind the relay, on the owner).
			memoHits := func() (n int64) {
				for _, svc := range c.svcs {
					n += svc.met.memoHits.Load()
				}
				return n
			}
			hits := memoHits()
			for _, target := range []struct{ name, url string }{
				{"owner", owner}, {"owner repeat", owner}, {"non-owner", nonOwner}, {"non-owner repeat", nonOwner},
			} {
				status, got, hdr := postRaw(t, target.url+tc.path, body)
				if status != http.StatusOK {
					t.Fatalf("%s answered %d: %s", target.name, status, got)
				}
				if served := hdr.Get(servedByHeader); target.url == nonOwner && served != owner {
					t.Errorf("%s response served by %q, want the owner %q", target.name, served, owner)
				}
				if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
					t.Errorf("%s answer of %d bytes carries Content-Length %q", target.name, len(got), cl)
				}
				if got = envelopeLine.ReplaceAll(got, nil); !bytes.Equal(got, want) {
					t.Errorf("%s body differs from the single node's:\ngot:  %s\nwant: %s", target.name, got, want)
				}
			}
			// At least: owner repeat 1, non-owner 1 (on the owner),
			// non-owner repeat 2. Earlier subtests sent the same system, so
			// the first owner and non-owner requests may hit as well.
			if got := memoHits() - hits; got < 4 {
				t.Errorf("fleet memo hits grew by %d, want at least 4", got)
			}
		})
	}
}
