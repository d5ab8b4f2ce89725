package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeRequest drives the request-ingestion path — strict JSON
// decode, system materialization (native JSON or DSL), option
// translation and validation — with adversarial bodies. The contract:
// no input may panic; malformed bodies fail with an error, not a crash.
// This is the same code path the HTTP handlers run before any analysis.
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

	srv, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req analyzeRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // rejected at the door, as the handlers would
		}
		// Decoded bodies flow on: materialization and option validation
		// must reject garbage with errors, never panic.
		if _, _, err := srv.system(&req); err != nil {
			return
		}
		_ = req.Options.twca().Validate()
		_ = req.Options.latency().Validate()
		if req.Sensitivity != nil {
			_ = req.Sensitivity.options().Validate()
		}
		for _, c := range req.Constraints {
			_ = (wireConstraint{M: c.M, K: c.K}) // shape only; Valid() is checked in handlers
		}
	})
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
