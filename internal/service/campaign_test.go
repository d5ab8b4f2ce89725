package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/schema"
)

// postCampaign posts a campaign and decodes the full NDJSON stream.
func postCampaign(t testing.TB, url string, req campaignRequest) (int, []schema.CampaignLine) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var doc map[string]any
		json.NewDecoder(resp.Body).Decode(&doc)
		t.Logf("campaign error body: %v", doc)
		return resp.StatusCode, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	return resp.StatusCode, decodeNDJSON(t, resp.Body)
}

func decodeNDJSON(t testing.TB, r io.Reader) []schema.CampaignLine {
	t.Helper()
	var lines []schema.CampaignLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var line schema.CampaignLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestCampaignStream drives a mixed campaign — dmm, latency, and three
// differently-broken items — and checks the stream contract: one line
// per item in request order, failures as campaign_partial lines rather
// than an aborted stream, and a trailing summary with the counts.
func TestCampaignStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sys := thalesJSON(t)
	req := campaignRequest{Items: []campaignItem{
		{ID: "dmm-c", analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1, 10}}},
		{ID: "lat-d", Kind: "latency", analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_d"}},
		{ID: "bad-sys", analyzeRequest: analyzeRequest{System: json.RawMessage(`[1,2,3]`), Chain: "sigma_c"}},
		{ID: "bad-kind", Kind: "spectral", analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c"}},
		{ID: "bad-chain", analyzeRequest: analyzeRequest{System: sys, Chain: "no_such_chain"}},
	}}
	status, lines := postCampaign(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(lines) != len(req.Items)+1 {
		t.Fatalf("stream has %d lines, want %d items + summary", len(lines), len(req.Items))
	}
	for i, line := range lines {
		if line.Index != i {
			t.Errorf("line %d carries index %d — stream out of order", i, line.Index)
		}
		if line.SchemaVersion != schema.Version {
			t.Errorf("line %d schema_version = %d", i, line.SchemaVersion)
		}
	}
	if lines[0].ID != "dmm-c" || lines[0].Kind != schema.CampaignKindDMM ||
		lines[0].Analysis == nil || lines[0].Analysis.Chain != "sigma_c" {
		t.Errorf("dmm line = %+v", lines[0])
	}
	if lines[0].SystemHash == "" || lines[0].Cache == "" {
		t.Errorf("dmm line missing envelope: hash %q cache %q", lines[0].SystemHash, lines[0].Cache)
	}
	if lines[1].Kind != schema.CampaignKindLatency || lines[1].Latency == nil ||
		lines[1].Latency.WCL == 0 {
		t.Errorf("latency line = %+v", lines[1])
	}
	for i, wantCause := range map[int]string{2: "bad_request", 3: "invalid_options", 4: "no_chain"} {
		if lines[i].Kind != schema.CampaignKindPartial || lines[i].Cause != wantCause || lines[i].Error == "" {
			t.Errorf("line %d = kind %q cause %q error %q, want partial/%s",
				i, lines[i].Kind, lines[i].Cause, lines[i].Error, wantCause)
		}
		if lines[i].Analysis != nil || lines[i].Latency != nil {
			t.Errorf("partial line %d carries a result document", i)
		}
	}
	sum := lines[len(lines)-1]
	if sum.Kind != schema.CampaignKindSummary || sum.Items != 5 || sum.Failed != 3 || sum.Index != 5 {
		t.Errorf("summary = %+v, want 5 items, 3 failed", sum)
	}
}

// TestCampaignDefaults: Defaults replaces only an item's fully-unset
// options block. A defaults block naming a simulation-only policy must
// therefore fail the defaulted item with the owner classification
// (policy_unsupported) while an item with explicit options sails past.
func TestCampaignDefaults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sys := thalesJSON(t)
	req := campaignRequest{
		Defaults: &reqOptions{Policy: "jcl"},
		Items: []campaignItem{
			{ID: "defaulted", analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c"}},
			{ID: "explicit", analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c",
				Options: reqOptions{Policy: "spp"}}},
		},
	}
	status, lines := postCampaign(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if lines[0].Kind != schema.CampaignKindPartial || lines[0].Cause != "policy_unsupported" {
		t.Errorf("defaulted item = kind %q cause %q, want partial/policy_unsupported (defaults not applied?)",
			lines[0].Kind, lines[0].Cause)
	}
	if lines[1].Kind != schema.CampaignKindDMM || lines[1].Analysis == nil {
		t.Errorf("explicit-options item = %+v, want a dmm result", lines[1])
	}
}

func TestCampaignValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCampaignItems: 2})
	sys := thalesJSON(t)
	if status, _ := postCampaign(t, ts.URL, campaignRequest{}); status != http.StatusBadRequest {
		t.Errorf("empty campaign status = %d, want 400", status)
	}
	three := campaignRequest{Items: []campaignItem{
		{analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c"}},
		{analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c"}},
		{analyzeRequest: analyzeRequest{System: sys, Chain: "sigma_c"}},
	}}
	if status, _ := postCampaign(t, ts.URL, three); status != http.StatusBadRequest {
		t.Errorf("oversized campaign status = %d, want 400 (MaxCampaignItems=2)", status)
	}
	// Unknown top-level fields are rejected, same as the unary endpoints.
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json",
		strings.NewReader(`{"items":[],"tiems":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field campaign status = %d, want 400", resp.StatusCode)
	}
}

// TestCampaignByteIdentity pins the core API-consistency promise: a
// campaign line's analysis document is byte-identical to the document
// the unary endpoint returns for the same query — same schema, same
// bounds, same point ordering — so clients can switch between the two
// transports without output churn. Checked cold and warm, for every
// campaign item kind.
func TestCampaignByteIdentity(t *testing.T) {
	sys := thalesJSON(t)
	for _, tc := range []struct {
		kind  string
		chain string
		// unaryDoc decodes a unary 200 body and re-encodes its document
		// part; lineDoc does the same for a campaign line.
		unaryDoc func(io.Reader) (any, string, error)
		lineDoc  func(schema.CampaignLine) any
	}{
		{
			kind: schema.CampaignKindDMM, chain: "sigma_c",
			unaryDoc: func(r io.Reader) (any, string, error) {
				var u dmmResponse
				err := json.NewDecoder(r).Decode(&u)
				return u.Analysis, u.SystemHash, err
			},
			lineDoc: func(l schema.CampaignLine) any {
				if l.Analysis == nil {
					return nil
				}
				return *l.Analysis
			},
		},
		{
			kind: schema.CampaignKindLatency, chain: "sigma_d",
			unaryDoc: func(r io.Reader) (any, string, error) {
				var u latencyResponse
				err := json.NewDecoder(r).Decode(&u)
				return u.Latency, u.SystemHash, err
			},
			lineDoc: func(l schema.CampaignLine) any {
				if l.Latency == nil {
					return nil
				}
				return *l.Latency
			},
		},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			unary := analyzeRequest{System: sys, Chain: tc.chain, K: []int64{1, 3, 10, 100}}
			if tc.kind != schema.CampaignKindDMM {
				unary.K = nil
			}

			body, _ := json.Marshal(unary)
			resp, err := http.Post(ts.URL+"/v1/analyze/"+tc.kind, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			doc, hash, err := tc.unaryDoc(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("unary status = %d", resp.StatusCode)
			}
			unaryDoc, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}

			for _, pass := range []string{"cold", "warm"} {
				_, lines := postCampaign(t, ts.URL, campaignRequest{Items: []campaignItem{
					{Kind: tc.kind, analyzeRequest: unary},
				}})
				ldoc := tc.lineDoc(lines[0])
				if lines[0].Kind != tc.kind || ldoc == nil {
					t.Fatalf("%s campaign line = %+v", pass, lines[0])
				}
				campDoc, err := json.Marshal(ldoc)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(unaryDoc, campDoc) {
					t.Errorf("%s campaign document differs from the unary endpoint's:\nunary:    %s\ncampaign: %s",
						pass, unaryDoc, campDoc)
				}
				if lines[0].SystemHash != hash {
					t.Errorf("%s system hash %q != unary %q", pass, lines[0].SystemHash, hash)
				}
			}
		})
	}
}

// TestCampaignClientDisconnect: a client that walks away mid-stream
// must not strand workers or admission slots — the handler drains and
// the server keeps serving.
func TestCampaignClientDisconnect(t *testing.T) {
	svc, ts := newTestServer(t, Config{MaxInflight: 2})
	sys := thalesJSON(t)
	items := make([]campaignItem, 40)
	for i := range items {
		// Distinct K sets defeat the document cache so every item does
		// real marshaling work and the stream stays alive long enough
		// to abandon it credibly.
		items[i] = campaignItem{analyzeRequest: analyzeRequest{
			System: sys, Chain: "sigma_c", K: []int64{1, int64(i) + 2}}}
	}
	body, _ := json.Marshal(campaignRequest{Items: items})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/campaign", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one full line to prove the stream started, then vanish.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The pool must reclaim every worker and admission slot.
	deadline := time.Now().Add(10 * time.Second)
	for svc.gate.InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d admission slots still held after client disconnect", svc.gate.InUse())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the server is still healthy: a fresh unary request succeeds.
	status, _ := post(t, ts.URL+"/v1/analyze/dmm",
		analyzeRequest{System: sys, Chain: "sigma_c"})
	if status != http.StatusOK {
		t.Errorf("post-disconnect unary status = %d", status)
	}
}

// TestCampaignBackpressure: a slow reader must not lose or reorder
// lines. The bounded results channel makes workers block rather than
// buffer unboundedly; this test only observes the client-visible
// contract — every line arrives, in order, summary last.
func TestCampaignBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{CampaignWorkers: 4})
	sys := thalesJSON(t)
	const n = 20
	items := make([]campaignItem, n)
	for i := range items {
		items[i] = campaignItem{analyzeRequest: analyzeRequest{
			System: sys, Chain: "sigma_c", K: []int64{int64(i) + 1}}}
	}
	body, _ := json.Marshal(campaignRequest{Items: items})
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Drip-read: a few bytes at a time with pauses, far slower than the
	// workers produce.
	var buf bytes.Buffer
	chunk := make([]byte, 64)
	for {
		nr, err := resp.Body.Read(chunk)
		buf.Write(chunk[:nr])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	lines := decodeNDJSON(t, &buf)
	if len(lines) != n+1 {
		t.Fatalf("slow reader got %d lines, want %d", len(lines), n+1)
	}
	for i := 0; i < n; i++ {
		if lines[i].Index != i || lines[i].Kind != schema.CampaignKindDMM || lines[i].Analysis == nil {
			t.Errorf("line %d = index %d kind %q", i, lines[i].Index, lines[i].Kind)
		}
	}
	if sum := lines[n]; sum.Kind != schema.CampaignKindSummary || sum.Items != n || sum.Failed != 0 {
		t.Errorf("summary = %+v", sum)
	}
}
