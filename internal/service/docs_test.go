package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/schema"
	"repro/internal/store"
)

// envelopeCaches are the cache outcomes an envelope tail carries.
var envelopeCaches = []string{store.OutcomeHit, store.OutcomeMiss, store.OutcomeCoalesced, store.OutcomePeer}

// envelopedResponses are one response of every analysis endpoint with
// the given envelope fields, and a document in front of them.
func envelopedResponses(cache string, ms float64) []enveloped {
	dmm := schema.Analysis{SchemaVersion: schema.Version, Chain: "sigma_c", Policy: "spp", Deadline: 200, WCL: 331,
		Quality: "exact", DMM: []schema.DMMPoint{{K: 10, DMM: 5, Quality: "exact"}}}
	return []enveloped{
		&dmmResponse{Analysis: dmm, SystemHash: "05b1", Cache: cache, ElapsedMS: ms},
		&latencyResponse{Latency: schema.Latency{SchemaVersion: schema.Version, Chain: "sigma_d", WCL: 175},
			SystemHash: "05b1", Cache: cache, ElapsedMS: ms},
		&verifyResponse{SchemaVersion: schema.Version, Chain: "sigma_c", SystemHash: "05b1", Cache: cache,
			Results: []verifyResult{{M: 5, K: 10, Holds: true, DMM: 5, Quality: "exact"}}},
		&sensitivityResponse{Sensitivity: schema.Sensitivity{SchemaVersion: schema.Version, Chain: "sigma_c"},
			SystemHash: "05b1", Cache: cache, WarmStart: ms > 1, ElapsedMS: ms},
	}
}

// checkTail asserts that resp's encoding, cut before its envelope tail,
// plus the tail appendTail renders is exactly what writeJSON writes.
func checkTail(t *testing.T, resp enveloped) {
	t.Helper()
	data, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want := append(data, '\n')
	cut := bytes.LastIndex(want, cacheField)
	if cut < 0 {
		t.Fatalf("%T encodes no cache field: %s", resp, want)
	}
	if got := resp.appendTail(bytes.Clone(want[:cut])); !bytes.Equal(got, want) {
		t.Errorf("%T: stored prefix + tail differs from the encoding:\ngot:  %q\nwant: %q", resp, got[cut:], want[cut:])
	}
}

// TestEnvelopeTail pins the stored-document write byte for byte: for
// every response type, every cache outcome and elapsed times across
// encoding/json's float formats (1e-7 and 1e21 on take its exponent
// branch), the stored prefix plus the rendered tail equals the
// encoding.
func TestEnvelopeTail(t *testing.T) {
	for _, cache := range envelopeCaches {
		for _, ms := range []float64{0, 0.001, 1.5, 123456.789, 1e-7, 1e21, 1e300} {
			for _, resp := range envelopedResponses(cache, ms) {
				checkTail(t, resp)
			}
		}
	}
}

// TestStoredDocuments pins the stored documents: the first exact
// answer of each endpoint stores its encoding, the repeat in the other
// wire form of the system shares that one entry and answers the same
// bytes (envelope aside), and every answer — stored, encoded or an
// error — carries a Content-Length matching its body.
func TestStoredDocuments(t *testing.T) {
	forms := systemForms(t)
	for _, q := range memoQueries {
		t.Run(q.kind, func(t *testing.T) {
			svc, ts := newTestServer(t, Config{})
			bodies := [][]byte{forms[0].body(q.req), forms[2].body(q.req)}
			if q.kind == "sensitivity" {
				// The case-study answer is not exact, so it is never
				// stored; a one-task system with capped searches is.
				small := analyzeRequest{SystemDSL: "system s\nchain c periodic(100) deadline(100) { t prio 1 wcet 10 }\n",
					Chain: "c", Sensitivity: &reqSensitivity{M: 1, K: 10, MaxScale: 2000, MaxJitter: 10}}
				bodies = [][]byte{mustMarshal(t, small), mustMarshal(t, small)}
			}
			var want []byte
			for i, body := range bodies {
				status, got := postChecked(t, ts.URL+q.path, body)
				if status != http.StatusOK {
					t.Fatalf("request %d answered %d: %s", i, status, got)
				}
				if n := svc.docs.Len(); n != 1 {
					t.Errorf("request %d: %d stored documents, want 1", i, n)
				}
				if got = envelopeLine.ReplaceAll(got, nil); want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("stored answer differs:\ngot:  %s\nwant: %s", got, want)
				}
			}
		})
	}
	_, ts := newTestServer(t, Config{})
	if status, _ := postChecked(t, ts.URL+"/v1/verify", []byte(`{"chain": "c"}`)); status != http.StatusBadRequest {
		t.Errorf("verify without constraints answered %d", status)
	}
}

// TestStoredDocumentKeys pins the document keys: requests that share
// an artifact but differ in what the document is a function of (the
// endpoint, the dmm points, the breakpoint sweep, the constraints), or
// that differ in the artifact itself, are answered on one server, twice
// each — the second round from stored documents — and every answer
// equals a fresh server's answer to that request alone.
func TestStoredDocumentKeys(t *testing.T) {
	sys := thalesJSON(t)
	reqs := []struct {
		path string
		req  analyzeRequest
	}{
		{"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1, 10}}},
		{"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1, 10, 100}}},
		{"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "sigma_c"}},
		{"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "sigma_c", BreakpointsMaxK: 20}},
		{"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{10}, BreakpointsMaxK: 20}},
		{"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{10}}},
		{"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "sigma_d", K: []int64{1, 10}}},
		{"/v1/analyze/dmm", analyzeRequest{System: sys, Chain: "sigma_c", K: []int64{1, 10},
			Options: reqOptions{MaxCombinations: 1}}},
		{"/v1/verify", analyzeRequest{System: sys, Chain: "sigma_c", Constraints: []wireConstraint{{M: 5, K: 10}}}},
		{"/v1/verify", analyzeRequest{System: sys, Chain: "sigma_c", Constraints: []wireConstraint{{M: 4, K: 10}}}},
		{"/v1/verify", analyzeRequest{System: sys, Chain: "sigma_c", Constraints: []wireConstraint{{M: 4, K: 10}, {M: 5, K: 10}}}},
		{"/v1/analyze/latency", analyzeRequest{System: sys, Chain: "sigma_c"}},
		{"/v1/analyze/latency", analyzeRequest{System: sys, Chain: "sigma_d"}},
	}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		_, fresh := newTestServer(t, Config{})
		status, got, _ := postRaw(t, fresh.URL+r.path, mustMarshal(t, r.req))
		if status != http.StatusOK {
			t.Fatalf("request %d answered %d: %s", i, status, got)
		}
		want[i] = envelopeLine.ReplaceAll(got, nil)
	}
	svc, ts := newTestServer(t, Config{})
	for round := 0; round < 2; round++ {
		for i, r := range reqs {
			_, got, _ := postRaw(t, ts.URL+r.path, mustMarshal(t, r.req))
			if got = envelopeLine.ReplaceAll(got, nil); !bytes.Equal(got, want[i]) {
				t.Errorf("round %d, request %d differs from a fresh server's answer:\ngot:  %s\nwant: %s", round, i, got, want[i])
			}
		}
	}
	if svc.docs.Len() == 0 {
		t.Error("no document stored")
	}
}

// postChecked posts body and returns the answer, asserting that it
// carried a Content-Length equal to its length.
func postChecked(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("answer of %d bytes carries Content-Length %q, transfer encoding %v", len(got), cl, resp.TransferEncoding)
	}
	return resp.StatusCode, got
}
