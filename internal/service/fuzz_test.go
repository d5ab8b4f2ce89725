package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzDecodeRequest drives the request pipeline — strict JSON decode,
// the endpoint checks, system materialization (native JSON or DSL),
// option validation, the request memo and the stored documents — with
// adversarial bodies, posting each body twice to every analysis
// endpoint of a fresh server. The contract: no input may panic, and
// the repeat, which the request memo (and, for an exact answer, the
// stored document) serves, answers what the first request answered:
// the same status and the same bytes once the cache outcome and wall
// time are removed. Answers shaped by server state rather than input
// (see stateful) are not compared.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"system_dsl": "system s\nchain c periodic(100) deadline(100) { t prio 1 wcet 10 }\n", "chain": "c", "k": [1, 10]}`))
	f.Add([]byte(`{"system": {"name": "s", "chains": []}, "chain": "c"}`))
	f.Add([]byte(`{"chain": "c", "options": {"max_combinations": -1, "max_q": -9223372036854775808}}`))
	f.Add([]byte(`{"system_dsl": "system", "chain": ""}`))
	f.Add([]byte(`{"constraints": [{"m": -5, "k": 0}], "options": {"no_degrade": true}}`))
	f.Add([]byte(`{"sensitivity": {"m": 9223372036854775807, "k": 1, "scale_denom": -1}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"system": "not an object", "system_dsl": "also set"}`))
	f.Add([]byte(`{"breakpoints_max_k": 1e308}`))
	f.Add([]byte(`{"system_dsl": "system s\nchain c periodic(100) deadline(100) { t prio 1 wcet 10 }\n", "chain": "c", "constraints": [{"m": 1, "k": 5}], "sensitivity": {"m": 1, "k": 5, "max_scale": 2000, "max_jitter": 10}}`))
	f.Add([]byte(`{"system_dsl": "system s\nchain c periodic(100) deadline(100) { t prio 1 wcet 10 }\n", "chain": "c", "bogus": 1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// One server serves all four endpoints: request-memo keys carry
		// the endpoint name, so each endpoint's first post is a miss and
		// its repeat a hit.
		srv, err := New(Config{RequestTimeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for name, ep := range endpoints {
			var answers [2]*httptest.ResponseRecorder
			for i := range answers {
				answers[i] = httptest.NewRecorder()
				srv.Handler().ServeHTTP(answers[i], httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(data)))
			}
			first, again := answers[0], answers[1]
			if stateful(first) || stateful(again) {
				continue
			}
			if first.Code != again.Code {
				t.Fatalf("%s: repeat answered %d, first %d:\n%s\n%s", name, again.Code, first.Code, first.Body, again.Body)
			}
			if a, b := envelopeLine.ReplaceAll(first.Body.Bytes(), nil), envelopeLine.ReplaceAll(again.Body.Bytes(), nil); !bytes.Equal(a, b) {
				t.Fatalf("%s: repeat answer differs:\nfirst:  %s\nrepeat: %s", name, a, b)
			}
		}
	})
}

// stateful reports an answer shaped by more than its input: cut by the
// deadline (timing), or degraded by a circuit breaker that the budget
// trips of earlier requests opened.
func stateful(r *httptest.ResponseRecorder) bool {
	return r.Code == http.StatusGatewayTimeout ||
		bytes.Contains(r.Body.Bytes(), []byte(`"deadline"`)) || bytes.Contains(r.Body.Bytes(), []byte(`"breaker"`))
}

// FuzzDecodeClusterRequest drives the cluster-admin ingestion path —
// strict decode of the membership mutation body plus peer-URL
// validation — with adversarial bodies. The contract matches the other
// decoders: no input may panic, malformed bodies fail with an error,
// and a URL that survives validation must round-trip through the
// normalizer unchanged (propagation re-sends the normalized form).
func FuzzDecodeClusterRequest(f *testing.F) {
	f.Add([]byte(`{"peer": "http://10.0.0.4:8443"}`))
	f.Add([]byte(`{"peer": "https://replica-3.internal", "local_only": true}`))
	f.Add([]byte(`{"peer": "http://10.0.0.4:8443/"}`))
	f.Add([]byte(`{"peer": ""}`))
	f.Add([]byte(`{"peer": "ftp://nope"}`))
	f.Add([]byte(`{"peer": "http://host/path?q=1#frag"}`))
	f.Add([]byte(`{"peer": "http://[::1]:8443"}`))
	f.Add([]byte(`{"peer": "://missing-scheme"}`))
	f.Add([]byte(`{"peer": "http://a", "bogus": 1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req clusterRequest
		if err := decodeStrict(data, &req); err != nil {
			return // rejected at the door, as the handlers would
		}
		peer, err := validatePeerURL(req.Peer)
		if err != nil {
			return
		}
		// Normalization must be idempotent: the propagated body carries
		// the normalized URL, and the receiving replica validates again.
		again, err := validatePeerURL(peer)
		if err != nil {
			t.Fatalf("normalized peer %q failed re-validation: %v", peer, err)
		}
		if again != peer {
			t.Fatalf("validatePeerURL not idempotent: %q -> %q", peer, again)
		}
	})
}
