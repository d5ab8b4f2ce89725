package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"repro"
	"repro/internal/casestudy"
	"repro/internal/schema"
)

// thalesDSL returns the paper's case study in the textual DSL form.
func thalesDSL(t testing.TB) string {
	t.Helper()
	src, err := repro.FormatDSL(casestudy.New())
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// memoQueries are one warm query per endpoint that a store hit answers
// without analysis, with the system left for the caller to fill in.
var memoQueries = []struct {
	kind, path string
	req        analyzeRequest
}{
	{"dmm", "/v1/analyze/dmm", analyzeRequest{Chain: "sigma_c", K: []int64{1, 3, 10, 100}}},
	{"latency", "/v1/analyze/latency", analyzeRequest{Chain: "sigma_d"}},
	{"verify", "/v1/verify", analyzeRequest{Chain: "sigma_c",
		Constraints: []wireConstraint{{M: 5, K: 10}, {M: 4, K: 10}}}},
	{"sensitivity", "/v1/analyze/sensitivity", analyzeRequest{Chain: "sigma_c",
		Sensitivity: &reqSensitivity{M: 5, K: 10, Tasks: []string{"tau3c"}}}},
}

// systemForm is one wire form of the case study: body renders a
// request carrying the system in that form.
type systemForm struct {
	name string
	body func(analyzeRequest) []byte
}

// systemForms are the wire forms of one system: compact JSON,
// re-indented JSON (different bytes, same model) and the DSL.
func systemForms(t testing.TB) []systemForm {
	sys := thalesJSON(t)
	var compact, indented bytes.Buffer
	if err := json.Compact(&compact, sys); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&indented, sys, "", "\t"); err != nil {
		t.Fatal(err)
	}
	src := thalesDSL(t)
	return []systemForm{
		{"json", func(r analyzeRequest) []byte {
			r.System = compact.Bytes()
			return mustMarshal(t, r)
		}},
		// json.Marshal compacts a RawMessage, so the indented system is
		// spliced into the encoded body.
		{"json-indented", func(r analyzeRequest) []byte {
			r.System = compact.Bytes()
			return bytes.Replace(mustMarshal(t, r), compact.Bytes(), indented.Bytes(), 1)
		}},
		{"dsl", func(r analyzeRequest) []byte {
			r.SystemDSL = src
			return mustMarshal(t, r)
		}},
	}
}

// mustMarshal encodes v as a request body.
func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSystemMemoForms pins that the digest memo is invisible in the
// documents: one system sent as compact JSON, re-indented JSON and DSL
// is answered identically (cache outcome and wall time aside) with the
// same system_hash, on the first request of each form (a memo miss that
// parses) and on its repeat (a memo hit that does not).
func TestSystemMemoForms(t *testing.T) {
	forms := systemForms(t)
	for _, q := range memoQueries {
		t.Run(q.kind, func(t *testing.T) {
			svc, ts := newTestServer(t, Config{})
			var want []byte
			for round, memo := range []string{"miss", "hit"} {
				for _, form := range forms {
					hits, misses := svc.met.memoHits.Load(), svc.met.memoMisses.Load()
					status, got, _ := postRaw(t, ts.URL+q.path, form.body(q.req))
					if status != http.StatusOK {
						t.Fatalf("%s (memo %s) answered %d: %s", form.name, memo, status, got)
					}
					if dh, dm := svc.met.memoHits.Load()-hits, svc.met.memoMisses.Load()-misses; dh != int64(round) || dm != int64(1-round) {
						t.Errorf("%s: memo hits/misses moved by %d/%d, want a %s", form.name, dh, dm, memo)
					}
					got = envelopeLine.ReplaceAll(got, nil)
					if want == nil {
						want = got
					} else if !bytes.Equal(got, want) {
						t.Errorf("%s (memo %s) differs from compact JSON:\ngot:  %s\nwant: %s", form.name, memo, got, want)
					}
				}
			}
			if !bytes.Contains(want, []byte(`"system_hash": "`)) {
				t.Errorf("document carries no system_hash: %s", want)
			}
		})
	}
}

// TestSystemMemoEvictedArtifact pins the lazy parse: with room for one
// artifact, a repeat whose system hash comes from the memo but whose
// artifact was evicted parses the system inside the store flight and
// answers byte-identically to a fresh server.
func TestSystemMemoEvictedArtifact(t *testing.T) {
	for _, form := range systemForms(t) {
		t.Run(form.name, func(t *testing.T) {
			dmm, lat := memoQueries[0], memoQueries[1]
			dmmBody, latBody := form.body(dmm.req), form.body(lat.req)
			_, fresh := newTestServer(t, Config{})
			_, want, _ := postRaw(t, fresh.URL+dmm.path, dmmBody)

			svc, ts := newTestServer(t, Config{CacheSize: 1})
			postRaw(t, ts.URL+dmm.path, dmmBody)
			postRaw(t, ts.URL+lat.path, latBody) // evicts the dmm artifact and document
			// The repeat is a request-memo hit: its memoized request
			// carries no system, so the recompute decodes the body again.
			// Then, with the document stored, the artifact alone is
			// evicted.
			for _, evict := range []string{"artifact and document", "artifact"} {
				if _, ok := svc.memo.Peek(requestDigest(dmm.kind, dmmBody)); !ok {
					t.Fatalf("%s evicted: the dmm body is not in the request memo", evict)
				}
				hits, misses := svc.met.memoHits.Load(), svc.StoreStats().Misses
				status, got, _ := postRaw(t, ts.URL+dmm.path, dmmBody)
				if status != http.StatusOK {
					t.Fatalf("%s evicted: recompute answered %d: %s", evict, status, got)
				}
				if svc.met.memoHits.Load() != hits+1 || svc.StoreStats().Misses != misses+1 {
					t.Errorf("%s evicted: want a memo hit and an artifact miss; memo hits %d→%d, store misses %d→%d",
						evict, hits, svc.met.memoHits.Load(), misses, svc.StoreStats().Misses)
				}
				if !bytes.Equal(envelopeLine.ReplaceAll(got, nil), envelopeLine.ReplaceAll(want, nil)) {
					t.Errorf("%s evicted: recomputed document differs from a fresh server's:\ngot:  %s\nwant: %s", evict, got, want)
				}
				svc.store.Forget(artifactKey("dmm", svc.memoized(t, dmm.kind, dmmBody).hash, dmm.req.Chain, dmm.req.Options.fingerprint()))
			}
		})
	}
}

// memoized returns the request memo's entry for body on the endpoint.
func (s *Server) memoized(t *testing.T, name string, body []byte) *resolved {
	t.Helper()
	r, ok := s.memo.Peek(requestDigest(name, body))
	if !ok {
		t.Fatalf("%s body not in the request memo", name)
	}
	return r.(*resolved)
}

// TestRequestMemoSkipsFailures pins that only requests that resolved
// are memoized: an unknown field, a failing endpoint check and a system
// that does not parse answer the same 4xx on every repeat, and none of
// them enters the request memo.
func TestRequestMemoSkipsFailures(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	sys := thalesJSON(t)
	for _, bad := range []struct {
		name, kind string
		body       []byte
		status     int
	}{
		{"unknown field", "dmm", []byte(`{"chain": "sigma_c", "bogus": 1}`), http.StatusBadRequest},
		{"verify without constraints", "verify", mustMarshal(t, analyzeRequest{System: sys, Chain: "sigma_c"}), http.StatusBadRequest},
		{"sensitivity without its block", "sensitivity", mustMarshal(t, analyzeRequest{System: sys, Chain: "sigma_c"}), http.StatusBadRequest},
		{"unparsable system", "latency", mustMarshal(t, analyzeRequest{SystemDSL: "system bad\nchain c {", Chain: "c"}), http.StatusBadRequest},
	} {
		var first []byte
		for i := 0; i < 3; i++ {
			entries := svc.memo.Len()
			status, got, _ := postRaw(t, ts.URL+endpoints[bad.kind].path, bad.body)
			if status != bad.status {
				t.Fatalf("%s: repeat %d answered %d, want %d: %s", bad.name, i, status, bad.status, got)
			}
			if first == nil {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Errorf("%s: repeat %d answered %s, first %s", bad.name, i, got, first)
			}
			if _, ok := svc.memo.Peek(requestDigest(bad.kind, bad.body)); ok || svc.memo.Len() != entries {
				t.Errorf("%s: repeat %d was memoized (memo %d → %d entries)", bad.name, i, entries, svc.memo.Len())
			}
		}
	}
}

// TestRequestMemoShared pins that concurrent repeats of one body share
// its memo entry and leave it as it was built (the race detector flags
// a write racing the other readers).
func TestRequestMemoShared(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	form := systemForms(t)[0]
	type entry struct {
		path string
		body []byte
		r    *resolved
		snap resolved
		req  []byte
	}
	var entries []entry
	for _, q := range memoQueries {
		body := form.body(q.req)
		if status, got, _ := postRaw(t, ts.URL+q.path, body); status != http.StatusOK {
			t.Fatalf("%s warm-up answered %d: %s", q.kind, status, got)
		}
		r := svc.memoized(t, q.kind, body)
		if len(r.req.System) != 0 || r.req.SystemDSL != "" {
			t.Errorf("%s: memoized request retains its system", q.kind)
		}
		entries = append(entries, entry{q.path, body, r, *r, mustMarshal(t, r.req)})
	}
	const workers, rounds = 8, 6
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				e := entries[(w+i)%len(entries)]
				if status, got, _ := postRaw(t, ts.URL+e.path, e.body); status != http.StatusOK {
					t.Errorf("%s answered %d: %s", e.path, status, got)
				}
			}
		}(w)
	}
	wg.Wait()
	for i, q := range memoQueries {
		e := entries[i]
		r := svc.memoized(t, q.kind, e.body)
		if r != e.r {
			t.Errorf("%s: repeats replaced the memo entry", q.kind)
		}
		if *r != e.snap || !bytes.Equal(mustMarshal(t, r.req), e.req) {
			t.Errorf("%s: memo entry mutated: %+v %s, was %+v %s", q.kind, *r, mustMarshal(t, r.req), e.snap, e.req)
		}
	}
}

// TestRequestMemoBounded pins that what the request memo retains is
// bounded by bytes, not only by entries: distinct bodies whose fields
// besides the system encode in more than maxMemoRequest bytes (long
// point lists, which a latency query carries and ignores) are answered
// like any other, the same on every repeat, and never enter the memo;
// a small body does.
func TestRequestMemoBounded(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	form := systemForms(t)[0]
	lat := memoQueries[1]
	var want []byte
	for n := 0; n < 8; n++ {
		req := lat.req
		req.K = make([]int64, maxMemoRequest+n)
		for i := range req.K {
			req.K[i] = 1
		}
		body := form.body(req)
		for i := 0; i < 2; i++ {
			status, got, _ := postRaw(t, ts.URL+lat.path, body)
			if status != http.StatusOK {
				t.Fatalf("%d points, post %d answered %d: %s", len(req.K), i, status, got)
			}
			if got = envelopeLine.ReplaceAll(got, nil); want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%d points, post %d answered differently:\ngot:  %s\nwant: %s", len(req.K), i, got, want)
			}
		}
		if _, ok := svc.memo.Peek(requestDigest(lat.kind, body)); ok {
			t.Errorf("a body with %d points entered the request memo", len(req.K))
		}
	}
	if n := svc.memo.Len(); n != 1 {
		t.Errorf("memo holds %d entries after the large bodies, want 1 (the system digest)", n)
	}
	small := form.body(lat.req)
	postRaw(t, ts.URL+lat.path, small)
	svc.memoized(t, lat.kind, small)
}

// TestSystemMemoSkipsFailures pins that failed parses are not
// memoized: a bad system is 400 bad_request on every repeat, unary and
// as a campaign item, and every attempt is a memo miss.
func TestSystemMemoSkipsFailures(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	for _, bad := range []analyzeRequest{
		{SystemDSL: "system bad\nchain c periodic(10) {\n", Chain: "c"},
		{System: json.RawMessage(`{"name": 5}`), Chain: "c"},
	} {
		for i := 0; i < 3; i++ {
			misses := svc.met.memoMisses.Load()
			status, doc := post(t, ts.URL+"/v1/analyze/dmm", bad)
			if status != http.StatusBadRequest || doc["kind"] != "bad_request" {
				t.Fatalf("repeat %d answered %d %v, want 400 bad_request", i, status, doc)
			}
			_, lines := postCampaign(t, ts.URL, campaignRequest{Items: []campaignItem{{analyzeRequest: bad}}})
			if len(lines) != 2 || lines[0].Kind != schema.CampaignKindPartial || lines[0].Cause != "bad_request" {
				t.Fatalf("campaign repeat %d: %+v, want one bad_request partial line and the summary", i, lines)
			}
			if got := svc.met.memoMisses.Load() - misses; got != 2 {
				t.Errorf("repeat %d: %d memo misses, want 2 (no failure is memoized)", i, got)
			}
		}
	}
	if hits := svc.met.memoHits.Load(); hits != 0 {
		t.Errorf("%d memo hits on systems that never parsed", hits)
	}
}
