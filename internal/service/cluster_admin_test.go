package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/schema"
)

// assertDocsMatchTruth byte-compares every DMM document in lines
// against the ground-truth campaign run on an isolated single node.
func assertDocsMatchTruth(t testing.TB, lines, truth []schema.CampaignLine, what string) {
	t.Helper()
	for i, line := range lines {
		if line.Kind != schema.CampaignKindDMM || line.Analysis == nil {
			t.Fatalf("%s: line %d = kind %q error %q cause %q", what, i, line.Kind, line.Error, line.Cause)
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
			t.Errorf("%s: item %d document differs from ground truth:\ngot:  %s\nwant: %s", what, i, got, want)
		}
	}
}

// getCluster fetches and decodes GET /v1/cluster.
func getCluster(t testing.TB, url string) clusterResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster = %d", resp.StatusCode)
	}
	var view clusterResponse
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// TestClusterAdminAuth: membership mutations require loopback or the
// shared cluster secret; the spoofable relay forward header is never
// sufficient. The read-only view is open like /healthz.
func TestClusterAdminAuth(t *testing.T) {
	svc, err := New(Config{
		Self:              "http://a",
		Peers:             []string{"http://a", "http://b"},
		ClusterSecret:     "fleet-credential",
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := svc.Handler()

	do := func(h http.Handler, remoteAddr, relayFrom, secret, peer string) *httptest.ResponseRecorder {
		body, err := json.Marshal(clusterRequest{Peer: peer, LocalOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/join", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if remoteAddr != "" {
			req.RemoteAddr = remoteAddr
		}
		if relayFrom != "" {
			req.Header.Set(forwardHeader, relayFrom)
		}
		if secret != "" {
			req.Header.Set(clusterSecretHeader, secret)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// httptest.NewRequest's default RemoteAddr is 192.0.2.1 -- off-host.
	if rec := do(h, "", "", "", "http://c"); rec.Code != http.StatusForbidden {
		t.Errorf("off-host mutation = %d, want 403", rec.Code)
	}
	// The relay forward header is a loop guard any client can set, not
	// a credential: an off-host "relay" must NOT authorize a mutation.
	if rec := do(h, "198.51.100.7:4", "http://b", "", "http://c"); rec.Code != http.StatusForbidden {
		t.Errorf("off-host mutation with spoofed forward header = %d, want 403", rec.Code)
	}
	if rec := do(h, "198.51.100.7:4", "", "wrong-credential", "http://c"); rec.Code != http.StatusForbidden {
		t.Errorf("off-host mutation with wrong secret = %d, want 403", rec.Code)
	}
	if got := len(svc.store.Membership().Peers); got != 2 {
		t.Error("forbidden mutation still changed the membership")
	}
	if rec := do(h, "127.0.0.1:9999", "", "", "http://c"); rec.Code != http.StatusOK {
		t.Errorf("loopback mutation = %d, want 200: %s", rec.Code, rec.Body)
	}
	if rec := do(h, "[::1]:9999", "", "", "http://d"); rec.Code != http.StatusOK {
		t.Errorf("IPv6 loopback mutation = %d, want 200: %s", rec.Code, rec.Body)
	}
	if rec := do(h, "198.51.100.7:4", "", "fleet-credential", "http://e"); rec.Code != http.StatusOK {
		t.Errorf("off-host mutation with the cluster secret = %d, want 200: %s", rec.Code, rec.Body)
	}
	if got := len(svc.store.Membership().Peers); got != 5 {
		t.Errorf("membership has %d peers after three joins, want 5", got)
	}

	// With no secret configured, mutations are loopback-only: a secret
	// header (any value) must not open the door.
	bare, err := New(Config{
		Self:              "http://a",
		Peers:             []string{"http://a", "http://b"},
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bare.Close)
	if rec := do(bare.Handler(), "198.51.100.7:4", "", "anything", "http://c"); rec.Code != http.StatusForbidden {
		t.Errorf("secretless server accepted an off-host mutation: %d, want 403", rec.Code)
	}
	if got := len(bare.store.Membership().Peers); got != 2 {
		t.Error("secretless server's membership changed off-host")
	}

	// The read-only view is served to anyone who can reach the port.
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("off-host GET /v1/cluster = %d, want 200", rec.Code)
	}
}

// TestClusterNoIdentityMutationRejected: a server started without a
// fleet identity (no -self) refuses membership mutations with 409 --
// joining peers anyway would build a ring that excludes self and void
// the one-hop relay loop guard (the forward header would be empty).
func TestClusterNoIdentityMutationRejected(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	body, err := json.Marshal(clusterRequest{Peer: "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/cluster/join", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.RemoteAddr = "127.0.0.1:9" // even a local operator is refused
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("identity-less join = %d, want 409: %s", rec.Code, rec.Body)
	}
	var e map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e["kind"] != "no_fleet_identity" {
		t.Errorf("error kind = %v, want no_fleet_identity", e["kind"])
	}
	if m := svc.store.Membership(); len(m.Peers) != 0 || m.Version != 0 {
		t.Errorf("rejected mutation changed membership: %+v", m)
	}
}

// TestClusterPropagationCarriesSecret: propagated membership mutations
// authenticate themselves with the cluster secret; ordinary analysis
// relays never carry it.
func TestClusterPropagationCarriesSecret(t *testing.T) {
	var mu sync.Mutex
	headers := map[string]string{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers[r.URL.Path] = r.Header.Get(clusterSecretHeader)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	svc, err := New(Config{
		Self:              "http://a",
		Peers:             []string{"http://a", "http://b"},
		ClusterSecret:     "fleet-credential",
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	for _, path := range []string{"/v1/cluster/join", "/v1/analyze/dmm"} {
		resp, err := svc.forward(context.Background(), ts.URL, path, []byte(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	if got := headers["/v1/cluster/join"]; got != "fleet-credential" {
		t.Errorf("propagated mutation carried secret %q, want the configured credential", got)
	}
	if got := headers["/v1/analyze/dmm"]; got != "" {
		t.Errorf("analysis relay leaked the cluster secret %q", got)
	}
}

// TestClusterViewMergesProberDown: a peer the heartbeat state machine
// still considers dead shows as "down" in GET /v1/cluster even after
// the store's cooldown-bounded down mark has been cleared -- the view
// merges both sources, as the runbook promises.
func TestClusterViewMergesProberDown(t *testing.T) {
	svc, err := New(Config{
		Self:              "http://a",
		Peers:             []string{"http://a", "http://b"},
		HeartbeatInterval: -1, // prober driven by hand below
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.hb = newHeartbeat(svc.store, svc.met, time.Hour, 1, 1, 1)

	svc.hb.record("http://b", errors.New("probe failed"))
	if !svc.store.Down("http://b") {
		t.Fatal("probe failure did not mark the peer down")
	}
	// Simulate the store's cooldown expiring between probe rounds: the
	// store forgets, the prober still knows.
	svc.store.MarkUp("http://b")
	states := map[string]string{}
	for _, p := range svc.clusterView().Peers {
		states[p.URL] = p.State
	}
	if states["http://b"] != "down" {
		t.Errorf(`prober-dead peer state = %q, want "down" (store cooldown expired)`, states["http://b"])
	}

	// Recovery clears both sources.
	svc.hb.record("http://b", nil)
	states = map[string]string{}
	for _, p := range svc.clusterView().Peers {
		states[p.URL] = p.State
	}
	if states["http://b"] != "up" {
		t.Errorf(`recovered peer state = %q, want "up"`, states["http://b"])
	}
}

// TestClusterAdminValidation: malformed mutation bodies are rejected at
// the door with 400, and membership never changes.
func TestClusterAdminValidation(t *testing.T) {
	svc, err := New(Config{
		Self:              "http://a",
		Peers:             []string{"http://a", "http://b"},
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := svc.Handler()

	bad := []string{
		`{`,                                   // not JSON
		`{"peer": "http://c", "bogus": true}`, // unknown field (strict decode)
		`{"peer": ""}`,                        // empty
		`{"peer": "ftp://c"}`,                 // wrong scheme
		`{"peer": "http://"}`,                 // no host
		`{"peer": "http://c/api"}`,            // path
		`{"peer": "http://c?x=1"}`,            // query
		`{"peer": "http://c#frag"}`,           // fragment
		`{"peer": "::not a url::"}`,           // garbage
	}
	for _, body := range bad {
		req := httptest.NewRequest(http.MethodPost, "/v1/cluster/leave", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.RemoteAddr = "127.0.0.1:9"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q = %d, want 400 (%s)", body, rec.Code, rec.Body)
		}
	}
	if m := svc.store.Membership(); m.Version != 0 || len(m.Peers) != 2 {
		t.Errorf("rejected mutations changed membership to %+v", m)
	}
}

// TestClusterJoinLeavePropagation: one loopback POST to one replica
// reshapes the whole fleet's rings -- leave reaches the leaving replica
// too (which drains: it owns nothing but keeps serving), and a later
// join restores it everywhere.
func TestClusterJoinLeavePropagation(t *testing.T) {
	c := newCluster(t, 3, Config{HeartbeatInterval: -1})

	view := getCluster(t, c.url(0))
	if !view.Fleet || len(view.Peers) != 3 || view.MembershipVersion != 0 {
		t.Fatalf("initial view = %+v", view)
	}
	states := map[string]int{}
	for _, p := range view.Peers {
		states[p.State]++
	}
	if states["self"] != 1 || states["up"] != 2 {
		t.Fatalf("initial peer states = %v", states)
	}

	// Leave: node 2 departs, announced to node 0 only.
	status, doc := post(t, c.url(0)+"/v1/cluster/leave", clusterRequest{Peer: c.url(2)})
	if status != http.StatusOK || doc["changed"] != true {
		t.Fatalf("leave = %d %v", status, doc)
	}
	for i := 0; i < 3; i++ {
		m := c.svcs[i].store.Membership()
		if len(m.Peers) != 2 || m.Version != 1 {
			t.Fatalf("replica %d membership after propagated leave = %+v", i, m)
		}
		for _, p := range m.Peers {
			if p == c.url(2) {
				t.Fatalf("replica %d still routes to the departed peer", i)
			}
		}
	}
	// The departed replica drained: in the fleet as a relay, owns nothing.
	if !c.svcs[2].store.Fleet() {
		t.Fatal("departed replica dropped out of the fleet instead of draining")
	}
	for i := 0; i < 20; i++ {
		if _, local := c.svcs[2].store.Route(fmt.Sprintf("k%d", i)); local {
			t.Fatal("drained replica still owns keys")
		}
	}

	// Join it back through a different member.
	status, doc = post(t, c.url(1)+"/v1/cluster/join", clusterRequest{Peer: c.url(2)})
	if status != http.StatusOK || doc["changed"] != true {
		t.Fatalf("join = %d %v", status, doc)
	}
	for i := 0; i < 3; i++ {
		if m := c.svcs[i].store.Membership(); len(m.Peers) != 3 || m.Version != 2 {
			t.Fatalf("replica %d membership after propagated join = %+v", i, m)
		}
	}

	// Idempotence: re-joining an existing member (with a trailing slash,
	// which validation normalizes away) changes nothing.
	status, doc = post(t, c.url(1)+"/v1/cluster/join", clusterRequest{Peer: c.url(2) + "/"})
	if status != http.StatusOK || doc["changed"] == true {
		t.Fatalf("repeat join = %d %v, want changed=false", status, doc)
	}
	if m := c.svcs[1].store.Membership(); m.Version != 2 {
		t.Errorf("no-op join bumped the version to %d", m.Version)
	}
}

// TestClusterRelayRetry: an injected failure on the first relay attempt
// makes the relay walk to the next ring arc after backoff and succeed
// there; when the deadline budget cannot absorb the backoff, the relay
// gives up instead of outliving the caller's patience.
func TestClusterRelayRetry(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()

	c := newCluster(t, 3, Config{
		HeartbeatInterval: -1,
		HedgeDelay:        -1, // isolate the retry path
		RelayRetries:      2,
		RelayBackoff:      time.Millisecond,
	})
	body, err := json.Marshal(analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{1, 10}})
	if err != nil {
		t.Fatal(err)
	}
	cands := []string{c.url(1), c.url(2)}

	// First attempt fails by injection; the retry lands on the next arc.
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointServiceRelay, Action: faultinject.ActionError, Times: 1},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, peer, release, err := c.svcs[0].relay(ctx, cands, "/v1/analyze/dmm", body)
	if err != nil {
		t.Fatalf("relay with one injected failure: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	release()
	if resp.StatusCode != http.StatusOK || peer != c.url(2) {
		t.Fatalf("relay answered %d via %q, want 200 via the second arc %q", resp.StatusCode, peer, c.url(2))
	}
	retries := c.svcs[0].met.relayRetries.Load()
	if retries != 1 {
		t.Errorf("relayRetries = %d, want 1", retries)
	}
	if !c.svcs[0].store.Down(c.url(1)) {
		t.Error("failed arc not marked down")
	}

	// Budget: with ~5ms left, the backoff plus safety margin does not
	// fit -- the relay must fail fast, not retry past the deadline.
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointServiceRelay, Action: faultinject.ActionError},
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	bctx, bcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer bcancel()
	_, _, _, err = c.svcs[0].relay(bctx, cands, "/v1/analyze/dmm", body)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("relay with every attempt failing reported success")
	}
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Errorf("relay error = %v, want ErrPeerUnavailable", err)
	}
	if elapsed > time.Second {
		t.Errorf("budget-starved relay took %v -- retried past the deadline", elapsed)
	}
	after := c.svcs[0].met.relayRetries.Load()
	if after != retries {
		t.Errorf("budget-starved relay recorded %d retries, want 0", after-retries)
	}
}

// TestClusterRelayHedge: a slow owner (injected delay far beyond
// HedgeDelay) arms the hedged second attempt on the next arc, which
// wins; the slow peer is NOT marked down -- slowness is not death.
func TestClusterRelayHedge(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Disarm()

	c := newCluster(t, 3, Config{
		HeartbeatInterval: -1,
		HedgeDelay:        30 * time.Millisecond,
		RelayRetries:      -1, // isolate the hedge path
		RelayBackoff:      time.Millisecond,
	})
	body, err := json.Marshal(analyzeRequest{System: thalesJSON(t), Chain: "sigma_c", K: []int64{1, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure([]faultinject.Rule{
		{Point: faultinject.PointServiceRelay, Action: faultinject.ActionDelay, Delay: 1500 * time.Millisecond, Times: 1},
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	resp, peer, release, err := c.svcs[0].relay(ctx, []string{c.url(1), c.url(2)}, "/v1/analyze/dmm", body)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged relay: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	release()
	if resp.StatusCode != http.StatusOK || peer != c.url(2) {
		t.Fatalf("hedged relay answered %d via %q, want 200 via the hedge arc %q", resp.StatusCode, peer, c.url(2))
	}
	if elapsed >= 1500*time.Millisecond {
		t.Errorf("hedged relay took %v -- waited out the slow primary instead of hedging", elapsed)
	}
	hedges, wins := c.svcs[0].met.relayHedges.Load(), c.svcs[0].met.relayHedgeWins.Load()
	if hedges != 1 || wins != 1 {
		t.Errorf("hedges = %d launched / %d won, want 1/1", hedges, wins)
	}
	if c.svcs[0].store.Down(c.url(1)) {
		t.Error("slow-but-alive peer was marked down by hedging")
	}
}

// TestClusterChurn is the membership-churn chaos round: mid-campaign, a
// fourth replica joins, one replica drains and leaves, and one is
// killed and evicted by the heartbeat prober -- and the stream still
// finishes with every document byte-identical to a single-node ground
// truth. Churn is a performance event, never a correctness event.
func TestClusterChurn(t *testing.T) {
	req := fleetCampaign(fleetSystems(t, 40))

	// Ground truth, computed before any chaos.
	_, truthTS := newTestServer(t, Config{})
	truth, _ := runCampaign(t, truthTS.URL, req)

	cfg := Config{CampaignWorkers: 2, HeartbeatInterval: 25 * time.Millisecond}
	c := newCluster(t, 3, cfg)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.url(0)+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The first line proves the campaign is in flight; all churn below
	// happens while items are still streaming.
	reader := bufio.NewReader(resp.Body)
	first, err := reader.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}

	// Churn 1: a fourth replica joins. One loopback POST to replica 0
	// propagates the new ring fleet-wide before returning.
	joiner := c.expand(t, cfg)
	status, doc := post(t, c.url(0)+"/v1/cluster/join", clusterRequest{Peer: c.url(joiner)})
	if status != http.StatusOK || doc["changed"] != true {
		t.Fatalf("mid-campaign join = %d %v", status, doc)
	}
	for i := 0; i < 3; i++ {
		if got := len(c.svcs[i].store.Membership().Peers); got != 4 {
			t.Fatalf("replica %d sees %d peers after join, want 4", i, got)
		}
	}

	// Churn 2: replica 2 drains and leaves -- it keeps serving in-flight
	// and relayed work but owns no arcs.
	status, doc = post(t, c.url(0)+"/v1/cluster/leave", clusterRequest{Peer: c.url(2)})
	if status != http.StatusOK || doc["changed"] != true {
		t.Fatalf("mid-campaign leave = %d %v", status, doc)
	}
	if _, local := c.svcs[2].store.Route("probe-key"); local {
		t.Fatal("drained replica still owns keys")
	}

	// Churn 3: replica 1 dies hard. No admin call -- the heartbeat
	// prober has to notice and evict it.
	c.kill(1)

	rest, err := io.ReadAll(reader)
	if err != nil {
		t.Fatalf("stream died during membership churn: %v", err)
	}
	lines := decodeNDJSON(t, bytes.NewReader(append(first, rest...)))
	if len(lines) != len(req.Items)+1 {
		t.Fatalf("stream has %d lines, want %d + summary -- items lost in the churn", len(lines), len(req.Items))
	}
	if sum := lines[len(req.Items)]; sum.Kind != schema.CampaignKindSummary || sum.Failed != 0 {
		t.Fatalf("summary = %+v, want zero failed items", sum)
	}
	assertDocsMatchTruth(t, lines[:len(req.Items)], truth, "churn campaign")

	// The heartbeat prober must evict the corpse: state-machine
	// transition recorded and the store routing around it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		downs := c.svcs[0].met.heartbeatDowns.Load()
		if downs >= 1 && c.svcs[0].store.Down(c.url(1)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat never evicted the killed replica (transitions=%d, down=%v)",
				downs, c.svcs[0].store.Down(c.url(1)))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The shrunken, churned fleet still answers the whole campaign
	// byte-exactly (warm where artifacts survived, recomputed where
	// they died with replica 1).
	wlines, _ := runCampaign(t, c.url(0), req)
	assertDocsMatchTruth(t, wlines, truth, "post-churn campaign")

	view := getCluster(t, c.url(0))
	if len(view.Peers) != 3 {
		t.Errorf("post-churn view has %d peers, want 3 (joiner in, leaver out)", len(view.Peers))
	}
	if view.MembershipVersion != 2 {
		t.Errorf("post-churn membership version = %d, want 2", view.MembershipVersion)
	}
}

// TestClusterJoinTeachesNewcomer: a joiner booted knowing only itself
// and one sponsor learns the rest of the fleet from the join
// propagation -- the single operator POST converges every ring,
// including the newcomer's.
func TestClusterJoinTeachesNewcomer(t *testing.T) {
	c := newCluster(t, 3, Config{HeartbeatInterval: -1})

	ts, hv := clusterListener()
	defer ts.Close()
	svc, err := New(Config{Self: ts.URL, Peers: []string{ts.URL, c.url(0)}, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	hv.Store(http.HandlerFunc(svc.Handler().ServeHTTP))

	status, doc := post(t, c.url(0)+"/v1/cluster/join", clusterRequest{Peer: ts.URL})
	if status != http.StatusOK || doc["changed"] != true {
		t.Fatalf("join = %d %v", status, doc)
	}
	// Every incumbent admitted the newcomer...
	for i := 0; i < 3; i++ {
		if m := c.svcs[i].store.Membership(); len(m.Peers) != 4 {
			t.Fatalf("replica %d membership after join = %+v", i, m)
		}
	}
	// ...and the newcomer learned every incumbent, not just its sponsor.
	m := svc.store.Membership()
	if len(m.Peers) != 4 {
		t.Fatalf("newcomer membership = %+v, want the full fleet", m)
	}
	want := map[string]bool{ts.URL: true, c.url(0): true, c.url(1): true, c.url(2): true}
	for _, p := range m.Peers {
		if !want[p] {
			t.Fatalf("newcomer routes to unknown peer %q", p)
		}
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("newcomer never learned %v", want)
	}
}
