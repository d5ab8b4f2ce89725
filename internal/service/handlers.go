package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/internal/degrade"
	"repro/internal/faultinject"
	"repro/internal/schema"
	"repro/internal/store"
)

// StatusClientClosedRequest is the (nginx-convention) status reported
// when the client went away before the analysis finished. No client
// sees it — it exists for the request log and /metrics.
const StatusClientClosedRequest = 499

// ErrPeerUnavailable reports that the replica owning an artifact could
// not be reached (connection refused, draining 503, relay timeout).
// The service treats it as a routing event, not a request failure — the
// artifact is recomputed locally — so clients only ever see it wrapped
// in an error whose primary cause is something else. errors.Is-able.
var ErrPeerUnavailable = store.ErrPeerUnavailable

// ErrCampaignPartial reports that a campaign stream completed but some
// items failed (their lines carry kind "campaign_partial"). The stream
// itself stays 200 — the sentinel exists so programmatic consumers of
// the summary line have an errors.Is-able class, mirroring the wire
// taxonomy. errors.Is-able.
var ErrCampaignPartial = errors.New("campaign completed with failed items")

func errNegative(field string, v int64) error {
	return fmt.Errorf("%w: service config: %s %d is negative", repro.ErrInvalidOptions, field, v)
}

// artifactKey addresses one analysis artifact in the two-tier store.
// Every key embeds the wire schema version: a version bump changes what
// documents derive from an artifact, and a key carrying the version
// makes it structurally impossible for a new binary to serve artifacts
// a different schema generation cached — across a mixed-version fleet
// as much as across a local restart. The fingerprint term must include
// everything that changes the artifact (policy, degrade policy, every
// option); TestFingerprintPinned pins that composition.
func artifactKey(kind, hash, chain, fp string) string {
	return fmt.Sprintf("%s|v%d|%s|%s|%s", kind, schema.Version, hash, chain, fp)
}

// routeKey is the consistent-hashing key for a system: ownership is by
// model content hash alone, so every artifact kind, chain and option
// set of one system lives on (and warms) the same replica.
func routeKey(hash string) string { return "m:" + hash }

// reqOptions is the wire form of the analysis options, a strict subset
// of repro.Options/LatencyOptions with snake_case keys. Zero values
// select the library defaults.
type reqOptions struct {
	MaxCombinations int  `json:"max_combinations,omitempty"`
	ExactCriterion  bool `json:"exact_criterion,omitempty"`
	Flat            bool `json:"flat,omitempty"`
	// Baseline requests the chain-agnostic baseline analysis of §VI
	// (every task its own chain); equivalent to Flat.
	Baseline      bool  `json:"baseline,omitempty"`
	NoCarryIn     bool  `json:"no_carry_in,omitempty"`
	MaxQ          int64 `json:"max_q,omitempty"`
	Horizon       int64 `json:"horizon,omitempty"`
	MaxIterations int   `json:"max_iterations,omitempty"`
	// NoDegrade opts this request out of the graceful-degradation
	// ladder: budget exhaustion (deadline, combination blow-up, ILP node
	// cap) fails the request instead of answering with a sound
	// over-approximation tagged "safe-upper-bound"/"trivial". By default
	// the service degrades rather than 504s an analyzable system.
	NoDegrade bool `json:"no_degrade,omitempty"`
	// Policy selects the scheduling policy ("spp", "np-spp", "edf";
	// absent or empty means "spp"). Simulation-only policies ("jcl")
	// fail analysis requests with 422 policy_unsupported; unknown names
	// are 400 invalid_options.
	Policy string `json:"policy,omitempty"`
}

func (o reqOptions) latency() repro.LatencyOptions {
	return repro.LatencyOptions{
		MaxQ:          o.MaxQ,
		Horizon:       repro.Time(o.Horizon),
		MaxIterations: o.MaxIterations,
		Policy:        o.Policy,
		Degrade:       repro.DegradePolicy{Allow: !o.NoDegrade},
	}
}

func (o reqOptions) twca() repro.Options {
	return repro.Options{
		MaxCombinations: o.MaxCombinations,
		ExactCriterion:  o.ExactCriterion,
		Flat:            o.Flat,
		Baseline:        o.Baseline,
		NoCarryIn:       o.NoCarryIn,
		Latency:         o.latency(),
		Degrade:         repro.DegradePolicy{Allow: !o.NoDegrade},
	}
}

// fingerprint is the options part of the cache key. The struct has no
// reference fields, so %+v is a stable, total rendering: every field —
// including Policy and the NoDegrade degrade-policy switch — is part of
// the key, and adding a field automatically extends it. The rendered
// composition is pinned by TestFingerprintPinned so an accidental move
// to a partial rendering cannot alias artifacts across policies.
func (o reqOptions) fingerprint() string { return fmt.Sprintf("%+v", o) }

// analyzeRequest is the common request envelope: a system in exactly
// one of the two formats, a target chain, and options.
type analyzeRequest struct {
	// System is a native JSON system document (the model package
	// schema, as in examples/data/thales.json).
	System json.RawMessage `json:"system,omitempty"`
	// SystemDSL is the textual DSL form (internal/dsl grammar).
	SystemDSL string `json:"system_dsl,omitempty"`
	Chain     string `json:"chain"`
	// K lists the dmm(k) points to evaluate (DMM endpoint; default
	// 1,10,100).
	K []int64 `json:"k,omitempty"`
	// BreakpointsMaxK, when > 0, additionally sweeps dmm breakpoints in
	// [1, BreakpointsMaxK] (the paper's Table II representation).
	BreakpointsMaxK int64 `json:"breakpoints_max_k,omitempty"`
	// Constraints are the weakly-hard (m, k) requirements to verify
	// (verify endpoint only).
	Constraints []wireConstraint `json:"constraints,omitempty"`
	// Sensitivity carries the sensitivity-query parameters (sensitivity
	// endpoint only).
	Sensitivity *reqSensitivity `json:"sensitivity,omitempty"`
	Options     reqOptions      `json:"options"`
}

type wireConstraint struct {
	M int64 `json:"m"`
	K int64 `json:"k"`
}

// reqSensitivity is the wire form of the sensitivity options: the
// weakly-hard constraint to defend plus the search bounds of
// repro.SensitivityOptions. Zero values select the library defaults.
type reqSensitivity struct {
	M            int64    `json:"m"`
	K            int64    `json:"k"`
	FrontierMaxK int64    `json:"frontier_max_k,omitempty"`
	ScaleDenom   int64    `json:"scale_denom,omitempty"`
	MaxScale     int64    `json:"max_scale,omitempty"`
	MaxJitter    int64    `json:"max_jitter,omitempty"`
	Tasks        []string `json:"tasks,omitempty"`
	// NoWarmStart opts this query out of the server's shared warm store:
	// every probe is a cold solve. The result document is byte-identical
	// either way (warm starts change only the work spent); the option
	// exists to measure the difference and to rule the store out when
	// debugging.
	NoWarmStart bool `json:"no_warm_start,omitempty"`
}

func (rs reqSensitivity) options() repro.SensitivityOptions {
	return repro.SensitivityOptions{
		Constraint:   repro.Constraint{M: rs.M, K: rs.K},
		ScaleDenom:   rs.ScaleDenom,
		MaxScale:     rs.MaxScale,
		MaxJitter:    repro.Time(rs.MaxJitter),
		FrontierMaxK: rs.FrontierMaxK,
		Tasks:        rs.Tasks,
		NoWarmStart:  rs.NoWarmStart,
	}
}

// fingerprint is the sensitivity part of the cache key; like reqOptions,
// %+v is a stable, total rendering (pinned by TestFingerprintPinned).
func (rs reqSensitivity) fingerprint() string { return fmt.Sprintf("%+v", rs) }

// Form tags of the system digest: the same bytes in the other form are
// a different system description.
const (
	formJSON = 'j'
	formDSL  = 'd'
)

// digest is the memo key of the request's system description: the
// SHA-256 of its form tag and its exact bytes as received. The DSL text
// streams through a stack buffer, so hashing copies no system to the
// heap.
func (req *analyzeRequest) digest() (string, error) {
	h := sha256.New()
	var buf [512]byte
	switch {
	case len(req.System) > 0 && req.SystemDSL != "":
		return "", fmt.Errorf("request has both system and system_dsl")
	case len(req.System) > 0:
		h.Write(append(buf[:0], formJSON))
		h.Write(req.System)
	case req.SystemDSL != "":
		h.Write(append(buf[:0], formDSL))
		for src := req.SystemDSL; len(src) > 0; {
			n := copy(buf[:], src)
			h.Write(buf[:n])
			src = src[n:]
		}
	default:
		return "", fmt.Errorf("request needs a system or system_dsl")
	}
	return string(h.Sum(buf[:0])), nil
}

// parse builds the model of the request's system description.
func (req *analyzeRequest) parse() (*repro.System, error) {
	if len(req.System) > 0 {
		var s repro.System
		if err := json.Unmarshal(req.System, &s); err != nil {
			return nil, fmt.Errorf("bad system: %w", err)
		}
		return &s, nil
	}
	s, err := repro.ParseDSL(req.SystemDSL)
	if err != nil {
		return nil, fmt.Errorf("bad system_dsl: %w", err)
	}
	return s, nil
}

// system resolves the request's system to its canonical content hash.
// A system whose exact bytes were seen before is answered from the
// digest memo without building a model (the returned *System is nil);
// otherwise the system is parsed and hashed here, and the hash is
// memoized. Only successful parses are memoized, so a bad system fails
// on every repeat. The memo is sound because the canonical hash is a
// deterministic function of the form and the bytes: a repeat would
// parse, validate and hash exactly as the first request did.
func (s *Server) system(req *analyzeRequest) (*repro.System, string, error) {
	key, err := req.digest()
	if err != nil {
		return nil, "", err
	}
	if hash, ok := s.memo.Peek(key); ok {
		s.met.memoHits.Add(1)
		return nil, hash.(string), nil
	}
	s.met.memoMisses.Add(1)
	sys, err := req.parse()
	if err != nil {
		return nil, "", err
	}
	hash, err := repro.CanonicalHash(sys)
	if err != nil {
		return nil, "", fmt.Errorf("system not hashable: %w", err)
	}
	s.memo.Add(key, hash)
	return sys, hash, nil
}

// errorResponse is the JSON error body.
type errorResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
	// Kind is the facade sentinel class the error matched, e.g.
	// "no_chain", "unschedulable" — programmatic without string
	// matching on Error.
	Kind string `json:"kind,omitempty"`
}

// classify maps a facade or service error to its HTTP status and
// sentinel name. Decode/parse failures (wrapped in badRequestError) are
// 400 regardless of their cause.
func classify(err error) (int, string) {
	var bad badRequestError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, repro.ErrNoChain):
		return http.StatusNotFound, "no_chain"
	case errors.Is(err, repro.ErrInvalidOptions):
		return http.StatusBadRequest, "invalid_options"
	case errors.Is(err, repro.ErrNoDeadline):
		return http.StatusUnprocessableEntity, "no_deadline"
	case errors.Is(err, repro.ErrTooManyCombinations):
		return http.StatusUnprocessableEntity, "too_many_combinations"
	case errors.Is(err, repro.ErrUnschedulable):
		return http.StatusUnprocessableEntity, "unschedulable"
	case errors.Is(err, repro.ErrInfeasibleConstraint):
		return http.StatusUnprocessableEntity, "infeasible_constraint"
	case errors.Is(err, repro.ErrPolicyUnsupported):
		return http.StatusUnprocessableEntity, "policy_unsupported"
	case errors.Is(err, ErrCampaignPartial):
		return http.StatusMultiStatus, "campaign_partial"
	case errors.Is(err, repro.ErrWorkerPanic):
		return http.StatusInternalServerError, "worker_panic"
	case errors.Is(err, faultinject.ErrInjected):
		return http.StatusInternalServerError, "injected"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, repro.ErrCanceled) || errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, ErrPeerUnavailable):
		// Checked after the cancellation classes: a relay abandoned
		// because the *client* left must read as canceled, not as a peer
		// outage.
		return http.StatusBadGateway, "peer_unavailable"
	}
	return http.StatusInternalServerError, ""
}

type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// writeJSON writes v as an indented JSON answer and returns its
// encoding (without the final newline; nil when v does not encode).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) []byte {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil
	}
	writeBody(w, status, data, newline)
	return data
}

var newline = []byte("\n")

// writeBody writes a JSON answer made of head and tail, with its
// Content-Length, so no answer falls back to chunked encoding.
func writeBody(w http.ResponseWriter, status int, head, tail []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(tail)))
	w.WriteHeader(status)
	w.Write(head)
	w.Write(tail)
}

// retryAfterSeconds renders d as a Retry-After header value (whole
// seconds, at least 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// fail renders err and accounts the request. During a drain,
// cancellation and timeout failures are reported as 503 + Retry-After:
// the work was lost to the shutdown, not to the system, and a retry
// hits a healthy instance.
func (s *Server) fail(w http.ResponseWriter, endpoint string, err error) {
	status, kind := classify(err)
	if s.draining.Load() && (status == StatusClientClosedRequest || status == http.StatusGatewayTimeout) {
		status, kind = http.StatusServiceUnavailable, "draining"
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.DrainTimeout))
	}
	if kind == "worker_panic" {
		s.met.workerPanics.Add(1)
	}
	s.met.request(endpoint, status)
	s.writeJSON(w, status, errorResponse{SchemaVersion: schema.Version, Error: err.Error(), Kind: kind})
}

// readBody slurps the request body under the configured size cap. The
// raw bytes are kept because a fleet relay forwards them verbatim —
// re-encoding the parsed struct could normalize the JSON and change
// what the owner hashes.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var body []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= min(s.cfg.MaxBodyBytes, maxPreallocBody) {
		// A declared length is enforced by net/http: read a small body
		// in one buffer instead of growing one. A larger one grows as
		// its bytes arrive, so a client declaring a large body and
		// sending little holds little.
		body = make([]byte, n)
		_, err = io.ReadFull(rd, body)
	} else {
		body, err = io.ReadAll(rd)
	}
	if err != nil {
		return nil, badRequestError{fmt.Errorf("bad request body: %w", err)}
	}
	return body, nil
}

// maxPreallocBody is the largest declared body length readBody
// allocates before the body arrives.
const maxPreallocBody = 64 << 10

// decodeStrict parses data into v. Unknown fields are rejected:
// silently ignoring a typo like "max_combination" would analyze with
// defaults and report a wrong answer as a right one.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestError{fmt.Errorf("bad request body: %w", err)}
	}
	return nil
}

// endpoint is one analysis endpoint's entry in the request pipeline
// (serve): only what differs between the endpoints. Decoding, the
// system build, the fleet relay, the deadline, quality accounting and
// the write are serve's, the same for every endpoint.
type endpoint struct {
	path string
	// check validates the endpoint's own request fields before the
	// system is built (nil: nothing to check).
	check func(*analyzeRequest) error
	// keys renders the store keys of a request on the system with the
	// given hash and option fingerprint: the artifact it reads, and its
	// document — the artifact key plus whatever else the document is a
	// function of.
	keys func(req *analyzeRequest, hash, fp string) (artifact, doc string)
	// document answers the request on this replica.
	document func(*Server, context.Context, query) (outcome, error)
	// item is set on the endpoints that also answer campaign items (the
	// campaign kind is the endpoint's name): a fresh response body to
	// decode the owning replica's answer into.
	item func() lineDoc
}

// endpoints are the analysis endpoints by /metrics name.
var endpoints = map[string]*endpoint{
	"dmm": {path: "/v1/analyze/dmm", keys: dmmKeys, document: (*Server).dmmDoc,
		item: func() lineDoc { return new(dmmResponse) }},
	"latency": {path: "/v1/analyze/latency", keys: latencyKeys, document: (*Server).latencyDoc,
		item: func() lineDoc { return new(latencyResponse) }},
	"verify": {path: "/v1/verify", check: checkVerify, keys: verifyKeys, document: (*Server).verifyDoc},
	"sensitivity": {path: "/v1/analyze/sensitivity", check: checkSensitivity, keys: sensitivityKeys,
		document: (*Server).sensitivityDoc},
}

// resolved is what an analysis request's exact body determines before
// any analysis: the decoded request, its system's canonical hash and
// the store keys it addresses. The request memo shares one resolved
// among every repeat of a body, so it is never mutated once built.
type resolved struct {
	req  *analyzeRequest
	hash string
	// key is the artifact key and doc the document key (see
	// endpoint.keys).
	key, doc string
}

func newResolved(ep *endpoint, req *analyzeRequest, hash string) *resolved {
	r := &resolved{req: req, hash: hash}
	r.key, r.doc = ep.keys(req, hash, req.Options.fingerprint())
	return r
}

// query is one analysis request on its way through the pipeline. It
// carries the model only when this request already parsed it (a
// digest-memo miss).
type query struct {
	*resolved
	// body is a unary request's exact body (nil for a campaign item): a
	// request from the request memo carries no system, so building its
	// model decodes the body again. Only unary answers, documents of
	// their own, read and write stored encodings.
	body  []byte
	sys   *repro.System
	start time.Time
}

// model returns the request's system model, parsing it now when the
// hash came from a memo. The document functions call it only inside a
// store flight, so a warm hit never builds a model.
func (q query) model() (*repro.System, error) {
	if q.sys != nil {
		return q.sys, nil
	}
	req := q.req
	if len(req.System) == 0 && req.SystemDSL == "" {
		req = new(analyzeRequest)
		if err := decodeStrict(q.body, req); err != nil {
			return nil, err
		}
	}
	sys, err := req.parse()
	if err != nil {
		return nil, badRequestError{err}
	}
	return sys, nil
}

// outcome is an endpoint's answer: the 200 body, plus what quality
// accounting needs to know about it.
type outcome struct {
	body any
	// stored is the stored encoding of the document up to its envelope
	// tail; body then carries only the envelope fields (see enveloped).
	stored []byte
	// retain reports that the body's encoding may be stored under the
	// query's document key, provided no result degraded.
	retain bool
	// degraded counts the results answered below exact quality, by
	// exhausted budget.
	degraded map[string]int64
	// breaker reports whether the budgets feed the system's circuit
	// breaker. Only DMM budgets do: a latency or sensitivity trip says
	// nothing about the DMM combination space.
	breaker bool
}

// lineDoc is a response body that also stands as a campaign line's
// result: toLine returns l carrying it.
type lineDoc interface {
	toLine(l schema.CampaignLine) schema.CampaignLine
}

// serve is the request pipeline of every analysis endpoint: the
// resolved request (strict decode, the endpoint's check, the system's
// hash and the store keys — or all of them from the request memo), the
// relay to the replica owning the system, the per-request deadline, the
// endpoint's document function, quality accounting and the write.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, name string, ep *endpoint) {
	start := time.Now()
	body, err := s.readBody(w, r)
	var q query
	if err == nil {
		q, err = s.resolve(name, ep, body)
	}
	if err != nil {
		s.fail(w, name, err)
		return
	}
	q.start = start
	if s.toOwner(r.Context(), relayed(r), ep.path, q.hash, body, func(resp *http.Response, peer string) error {
		return s.passThrough(w, name, resp, peer)
	}) {
		return
	}
	// The analysis runs under the client's context (canceled on
	// disconnect) bounded by the per-request deadline.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	out, err := ep.document(s, ctx, q)
	if err != nil {
		s.fail(w, name, err)
		return
	}
	if s.accountQuality(q.hash, out) {
		w.Header().Set("Retry-After", retryAfterSeconds(breakerCooldown))
	}
	s.met.request(name, http.StatusOK)
	if out.stored != nil {
		writeBody(w, http.StatusOK, out.stored, out.body.(enveloped).appendTail(make([]byte, 0, 96)))
		return
	}
	data := s.writeJSON(w, http.StatusOK, out.body)
	if out.retain && len(out.degraded) == 0 {
		if cut := bytes.LastIndex(data, cacheField); cut >= 0 {
			s.docs.Add(q.doc, bytes.Clone(data[:cut]))
		}
	}
}

// resolve turns an analysis request body into its query: strict
// decode, the endpoint's check, the system's hash and the store keys.
// Each step is a deterministic function of the exact body, so the
// result is memoized under the body's digest and a repeat skips them
// all — counted as a system memo hit, since it resolved the hash
// without a parse. Only bodies that pass every step are memoized, so a
// bad body fails on every repeat. The memoized request drops its system
// description; an artifact miss on a repeat decodes the body again
// (query.model). A request whose other fields encode in more than
// maxMemoRequest bytes is not memoized, so no entry retains more than a
// few KB.
func (s *Server) resolve(name string, ep *endpoint, body []byte) (query, error) {
	q := query{body: body}
	digest := requestDigest(name, body)
	if r, ok := s.memo.Peek(digest); ok {
		s.met.memoHits.Add(1)
		q.resolved = r.(*resolved)
		return q, nil
	}
	req := new(analyzeRequest)
	if err := decodeStrict(body, req); err != nil {
		return query{}, err
	}
	var err error
	if ep.check != nil {
		err = ep.check(req)
	}
	var hash string
	if err == nil {
		q.sys, hash, err = s.system(req)
	}
	if err != nil {
		return query{}, badRequestError{err}
	}
	q.resolved = newResolved(ep, req, hash)
	// This query keeps its system for an artifact miss; the memo entry
	// drops it, so repeats decode it again only on an artifact miss.
	bare, bareReq := *q.resolved, *req
	bareReq.System, bareReq.SystemDSL = nil, ""
	bare.req = &bareReq
	if enc, err := json.Marshal(&bareReq); err == nil && len(enc) <= maxMemoRequest {
		s.memo.Add(digest, &bare)
	}
	return q, nil
}

// maxMemoRequest bounds a request-memo entry. Everything the entry
// holds — the decoded fields and the keys rendered from them — is at
// most a small multiple of the fields' encoding (a dmm point is 8 bytes
// decoded and at least 2 encoded), so one entry stays under about
// 10 KB. Warm queries encode in about 100 bytes.
const maxMemoRequest = 1 << 10

// requestDigest is the request memo's key: the endpoint's name and the
// SHA-256 of the exact body. It is longer than a system digest (32
// bytes), so both share one memo without ever colliding.
func requestDigest(name string, body []byte) string {
	sum := sha256.Sum256(body)
	var buf [64]byte
	return string(append(append(append(buf[:0], name...), 0), sum[:]...))
}

// storedDoc returns the stored encoding of a unary query's document
// when key — the artifact just looked up — is the one the document key
// embeds, and otherwise reports whether the document, once encoded, may
// be stored. Campaign items and answers from the breaker's degraded
// twin never see stored documents.
func (s *Server) storedDoc(q query, key string) (stored []byte, retain bool) {
	if q.body == nil || key != q.key {
		return nil, false
	}
	if v, ok := s.docs.Peek(q.doc); ok {
		return v.([]byte), false
	}
	return nil, true
}

// cacheField opens the envelope tail of every analysis document. What
// precedes it is a function of the artifact and the document key; the
// tail (cache, warm_start, elapsed_ms) is rendered for each request.
var cacheField = []byte(",\n  \"cache\": ")

// enveloped is a response whose encoding ends with the envelope tail:
// appendTail renders the tail from cacheField to the final newline
// exactly as writeJSON encodes it.
type enveloped interface {
	appendTail(b []byte) []byte
}

func (r *dmmResponse) appendTail(b []byte) []byte {
	return appendElapsed(appendCache(b, r.Cache), r.ElapsedMS)
}

func (r *latencyResponse) appendTail(b []byte) []byte {
	return appendElapsed(appendCache(b, r.Cache), r.ElapsedMS)
}

func (r *verifyResponse) appendTail(b []byte) []byte {
	return append(appendCache(b, r.Cache), "\n}\n"...)
}

func (r *sensitivityResponse) appendTail(b []byte) []byte {
	b = strconv.AppendBool(append(appendCache(b, r.Cache), ",\n  \"warm_start\": "...), r.WarmStart)
	return appendElapsed(b, r.ElapsedMS)
}

// appendCache renders the cache field. Its value is a store outcome
// name, which needs no JSON escaping.
func appendCache(b []byte, cache string) []byte {
	b = append(append(b, cacheField...), '"')
	return append(append(b, cache...), '"')
}

// appendElapsed renders the closing elapsed_ms field, its value by
// encoding/json itself.
func appendElapsed(b []byte, ms float64) []byte {
	v, _ := json.Marshal(ms) // a finite float always encodes
	b = append(append(b, ",\n  \"elapsed_ms\": "...), v...)
	return append(b, "\n}\n"...)
}

// accountQuality does the degradation bookkeeping of one answer, for
// the endpoints and campaign items alike: count each degraded result in
// /metrics and, when the budgets feed the breaker, record the outcome
// with the system's circuit breaker (a budget trip opens it after
// enough consecutive failures; an exact answer closes it). The return
// value reports whether the answer was degraded at all — the budget
// pressure is transient, so unary answers advertise Retry-After and a
// later retry may earn an exact answer.
func (s *Server) accountQuality(hash string, out outcome) (degradedAtAll bool) {
	tripped := false
	for budget, n := range out.degraded {
		s.met.degraded(budget, n)
		if budget != degrade.BudgetBreaker {
			tripped = true
		}
	}
	if out.breaker {
		switch {
		case tripped:
			s.breaker.recordTrip(hash)
		case len(out.degraded) == 0:
			s.breaker.recordOK(hash)
		}
	}
	return len(out.degraded) > 0
}

// degradedBy is the degraded-budget count of an answer made of one
// result (nil when the result is exact).
func degradedBy(q degrade.Info) map[string]int64 {
	if !q.Degraded() {
		return nil
	}
	return map[string]int64{q.Budget: 1}
}

// elapsedMS is the envelope's wall time since start.
func elapsedMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// dmmArtifact returns the prepared DMM analysis for the request's
// (system, chain, options), from the store's LRU, an in-flight twin, or
// a fresh gate-admitted analysis.
//
// When the system's circuit breaker is open (its exact analysis tripped
// budgets on consecutive requests), the analysis starts directly on the
// omega-sum degradation rung and is cached under a separate
// "|degraded" key — a degraded artifact can never be mistaken for, or
// shadow, an exact one. Before going degraded, the exact key is peeked:
// a cached exact artifact always wins over running a degraded analysis.
func (s *Server) dmmArtifact(ctx context.Context, q query) (*repro.Analysis, string, string, error) {
	key := q.key
	opts := q.req.Options.twca()
	if !q.req.Options.NoDegrade && s.breaker.open(q.hash) {
		if val, ok := s.store.Peek(key); ok {
			s.met.cacheOutcome(store.OutcomeHit)
			return val.(*repro.Analysis), key, store.OutcomeHit, nil
		}
		opts.Degrade.SkipExact = true
		key += "|degraded"
	} else {
		// Breaker closed: stale degraded twins must not linger past the
		// next exact artifact.
		defer s.store.Forget(key + "|degraded")
	}
	val, state, err := s.store.Do(ctx, key, func(fctx context.Context) (any, error) {
		sys, err := q.model()
		if err != nil {
			return nil, err
		}
		if err := s.gate.Acquire(fctx); err != nil {
			return nil, err
		}
		defer s.gate.Release()
		t0 := time.Now()
		an, err := repro.AnalysisRequest{System: sys, Chain: q.req.Chain, Options: opts}.DMM(fctx)
		s.met.observeAnalysis("dmm", time.Since(t0))
		return an, err
	})
	s.met.cacheOutcome(state)
	if err != nil {
		return nil, key, state, err
	}
	return val.(*repro.Analysis), key, state, nil
}

// dmmKs resolves the requested dmm(k) points (default 1, 10, 100 when
// neither points nor a breakpoint sweep were asked for).
func (req *analyzeRequest) dmmKs() []int64 {
	if len(req.K) == 0 && req.BreakpointsMaxK == 0 {
		return []int64{1, 10, 100}
	}
	return req.K
}

// dmmKeys addresses the DMM artifact and, under dmmDocKey, the sweep
// the request asks of it.
func dmmKeys(req *analyzeRequest, hash, fp string) (string, string) {
	key := artifactKey("dmm", hash, req.Chain, fp)
	return key, dmmDocKey(key, req)
}

func dmmDocKey(key string, req *analyzeRequest) string {
	return fmt.Sprintf("doc|%s|%v|%d", key, req.dmmKs(), req.BreakpointsMaxK)
}

// dmmResponse is schema.Analysis plus service envelope fields.
type dmmResponse struct {
	schema.Analysis
	SystemHash string  `json:"system_hash"`
	Cache      string  `json:"cache"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

func (r *dmmResponse) toLine(l schema.CampaignLine) schema.CampaignLine {
	l.Analysis, l.Cache = &r.Analysis, r.Cache
	return l
}

// dmmDoc answers a DMM query: the artifact (cached, coalesced or fresh)
// plus the assembled dmm sweep.
func (s *Server) dmmDoc(ctx context.Context, q query) (outcome, error) {
	an, key, state, err := s.dmmArtifact(ctx, q)
	if err != nil {
		return outcome{}, err
	}
	stored, retain := s.storedDoc(q, key)
	if stored != nil {
		return outcome{stored: stored, body: &dmmResponse{Cache: state, ElapsedMS: elapsedMS(q.start)}, breaker: true}, nil
	}
	// The document is a deterministic function of the artifact and the
	// requested points, so repeat queries reuse the assembled document
	// instead of re-sweeping the dmm curve — serving a retained one is
	// byte-identical to re-deriving it. A document with a degraded point
	// is not retained: a query-time budget trip (deadline, injected
	// fault) belongs to that query, not to the artifact, and replaying it
	// would deny a later, less pressed query the exact answer and feed
	// the breaker a trip per replay. The same rule governs the encoded
	// documents of unary answers (serve).
	docKey := q.doc
	if key != q.key {
		docKey = dmmDocKey(key, q.req)
	}
	out := outcome{breaker: true, retain: retain}
	var doc schema.Analysis
	if v, ok := s.store.Peek(docKey); ok {
		doc = v.(schema.Analysis)
	} else {
		var stats schema.Stats
		if doc, stats, err = schema.FromAnalysisStats(ctx, an, q.req.dmmKs(), q.req.BreakpointsMaxK); err != nil {
			return outcome{}, err
		}
		s.met.ilpNodes.Add(stats.ILPNodes)
		if out.degraded = stats.Degraded; len(out.degraded) == 0 {
			s.store.Add(docKey, doc)
		}
	}
	out.body = &dmmResponse{Analysis: doc, SystemHash: q.hash, Cache: state, ElapsedMS: elapsedMS(q.start)}
	return out, nil
}

type latencyResponse struct {
	schema.Latency
	SystemHash string  `json:"system_hash"`
	Cache      string  `json:"cache"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

func (r *latencyResponse) toLine(l schema.CampaignLine) schema.CampaignLine {
	l.Latency, l.Cache = &r.Latency, r.Cache
	return l
}

// latencyKeys addresses the latency artifact, of which the document is
// a function alone.
func latencyKeys(req *analyzeRequest, hash, fp string) (string, string) {
	key := artifactKey("latency", hash, req.Chain, fp)
	return key, key
}

// latencyDoc answers a latency query from the store or a fresh
// gate-admitted run.
func (s *Server) latencyDoc(ctx context.Context, q query) (outcome, error) {
	opts := q.req.Options.twca()
	val, state, err := s.store.Do(ctx, q.key, func(fctx context.Context) (any, error) {
		sys, err := q.model()
		if err != nil {
			return nil, err
		}
		if err := s.gate.Acquire(fctx); err != nil {
			return nil, err
		}
		defer s.gate.Release()
		t0 := time.Now()
		res, err := repro.AnalysisRequest{System: sys, Chain: q.req.Chain, Options: opts}.Latency(fctx)
		s.met.observeAnalysis("latency", time.Since(t0))
		return res, err
	})
	s.met.cacheOutcome(state)
	if err != nil {
		return outcome{}, err
	}
	stored, retain := s.storedDoc(q, q.key)
	if stored != nil {
		return outcome{stored: stored, body: &latencyResponse{Cache: state, ElapsedMS: elapsedMS(q.start)}}, nil
	}
	res := val.(*repro.LatencyResult)
	return outcome{
		body: &latencyResponse{
			Latency:    schema.FromLatency(res),
			SystemHash: q.hash,
			Cache:      state,
			ElapsedMS:  elapsedMS(q.start),
		},
		retain:   retain,
		degraded: degradedBy(res.Quality),
	}, nil
}

type verifyResponse struct {
	SchemaVersion int            `json:"schema_version"`
	Chain         string         `json:"chain"`
	Results       []verifyResult `json:"results"`
	SystemHash    string         `json:"system_hash"`
	Cache         string         `json:"cache"`
}

type verifyResult struct {
	M int64 `json:"m"`
	K int64 `json:"k"`
	// Holds is a guarantee when true; false only means the analysis
	// cannot prove the constraint. A degraded dmm keeps that reading: it
	// over-approximates, so Holds can only flip from true to false.
	Holds bool  `json:"holds"`
	DMM   int64 `json:"dmm"`
	// Quality/Budget tag degraded verifications as in schema.DMMPoint.
	Quality string `json:"quality"`
	Budget  string `json:"budget,omitempty"`
}

// verifyKeys addresses the DMM artifact, as dmmKeys does, and the
// verdicts on the request's constraints.
func verifyKeys(req *analyzeRequest, hash, fp string) (string, string) {
	key := artifactKey("dmm", hash, req.Chain, fp)
	return key, fmt.Sprintf("verify|%s|%v", key, req.Constraints)
}

func checkVerify(req *analyzeRequest) error {
	if len(req.Constraints) == 0 {
		return fmt.Errorf("request needs constraints")
	}
	for _, c := range req.Constraints {
		if !(repro.Constraint{M: c.M, K: c.K}).Valid() {
			return fmt.Errorf("invalid constraint (m=%d, k=%d): need 0 ≤ m < k", c.M, c.K)
		}
	}
	return nil
}

// verifyDoc checks the weakly-hard constraints against the DMM
// artifact, under the same artifact key as the DMM endpoint: verifying
// after analyzing (or vice versa) is a cache hit, and the request
// routes to the replica owning the system like a DMM query does.
func (s *Server) verifyDoc(ctx context.Context, q query) (outcome, error) {
	an, key, state, err := s.dmmArtifact(ctx, q)
	if err != nil {
		return outcome{}, err
	}
	stored, retain := s.storedDoc(q, key)
	if stored != nil {
		return outcome{stored: stored, body: &verifyResponse{Cache: state}, breaker: true}, nil
	}
	resp := &verifyResponse{SchemaVersion: schema.Version, Chain: q.req.Chain, SystemHash: q.hash, Cache: state}
	out := outcome{body: resp, breaker: true, retain: retain}
	for _, c := range q.req.Constraints {
		r, err := an.DMMCtx(ctx, c.K)
		if err != nil {
			return outcome{}, err
		}
		s.met.ilpNodes.Add(r.ILPNodes)
		if r.Quality.Degraded() {
			if out.degraded == nil {
				out.degraded = make(map[string]int64)
			}
			out.degraded[r.Quality.Budget]++
		}
		resp.Results = append(resp.Results, verifyResult{
			M: c.M, K: c.K, Holds: r.Value <= c.M, DMM: r.Value,
			Quality: r.Quality.Quality.String(), Budget: r.Quality.Budget,
		})
	}
	return out, nil
}

// sensitivityResponse is schema.Sensitivity plus service envelope
// fields. WarmStart tags whether the query was allowed to use the
// server's shared warm store — an envelope echo of the request option,
// NOT part of the analysis document: cache warmth stays wire-invisible
// (the schema.Sensitivity body is byte-identical warm or cold, which
// the golden contract pins).
type sensitivityResponse struct {
	schema.Sensitivity
	SystemHash string  `json:"system_hash"`
	Cache      string  `json:"cache"`
	WarmStart  bool    `json:"warm_start"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// probeAnalyze builds the AnalyzeFunc a sensitivity query's probes run
// through: each perturbed system is addressed in the shared artifact
// cache under the same artifactKey("dmm", ...) scheme as the DMM
// endpoint, so the nominal probe reuses (and seeds) /v1/analyze/dmm
// artifacts and probes shared between overlapping sensitivity queries
// are computed once. Cache misses take an admission slot like any other
// analysis and solve warm-started from the engine's hints (warm changes
// only the work spent, never the artifact, so the cache still keys on
// content alone); probes on unhashable perturbations bypass the cache.
//
// Probes stay node-local on purpose: a sensitivity query relays as a
// whole to the replica owning the nominal system (see serve), and once
// there, fanning its probes back out over the ring would trade
// warm-start locality — the dominant cost saver — for cross-replica LRU
// space of perturbed one-off systems.
func (s *Server) probeAnalyze(optfp string) repro.ProbeFunc {
	return func(ctx context.Context, sys *repro.System, hash, chain string, opts repro.Options, warm *repro.WarmStart) (*repro.Analysis, error) {
		run := func(fctx context.Context) (any, error) {
			if err := s.gate.Acquire(fctx); err != nil {
				return nil, err
			}
			defer s.gate.Release()
			return repro.AnalysisRequest{System: sys, Chain: chain, Options: opts}.DMMWarm(fctx, warm)
		}
		if hash == "" {
			s.met.sensitivityProbe("")
			val, err := run(ctx)
			if err != nil {
				return nil, err
			}
			return val.(*repro.Analysis), nil
		}
		val, state, err := s.store.Do(ctx, artifactKey("dmm", hash, chain, optfp), run)
		s.met.sensitivityProbe(state)
		if err != nil {
			return nil, err
		}
		return val.(*repro.Analysis), nil
	}
}

// sensitivityKeys addresses the whole sensitivity result under the
// query fingerprint; the document is a function of it alone.
func sensitivityKeys(req *analyzeRequest, hash, fp string) (string, string) {
	key := artifactKey("sens", hash, req.Chain, fp+"|"+req.Sensitivity.fingerprint())
	return key, key
}

func checkSensitivity(req *analyzeRequest) error {
	if req.Sensitivity == nil {
		return fmt.Errorf("request needs a sensitivity block")
	}
	return nil
}

// sensitivityDoc answers a sensitivity query. The whole result is
// cached under the query fingerprint; the gate is taken per probe
// inside probeAnalyze, not here, so a query's fan-out cannot deadlock
// against its own admission slot.
func (s *Server) sensitivityDoc(ctx context.Context, q query) (outcome, error) {
	val, state, err := s.store.Do(ctx, q.key, func(fctx context.Context) (any, error) {
		sys, err := q.model()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := repro.AnalysisRequest{System: sys, Chain: q.req.Chain, Options: q.req.Options.twca()}.
			SensitivityWarm(fctx, q.req.Sensitivity.options(), s.probeAnalyze(q.req.Options.fingerprint()), s.warm)
		s.met.observeAnalysis("sensitivity", time.Since(t0))
		if err == nil {
			s.met.bisectionSteps.Add(res.Probes)
		}
		return res, err
	})
	s.met.cacheOutcome(state)
	if err != nil {
		return outcome{}, err
	}
	warmStart := !q.req.Sensitivity.NoWarmStart
	stored, retain := s.storedDoc(q, q.key)
	if stored != nil {
		return outcome{stored: stored, body: &sensitivityResponse{
			Cache: state, WarmStart: warmStart, ElapsedMS: elapsedMS(q.start)}}, nil
	}
	res := val.(*repro.SensitivityResult)
	return outcome{
		retain: retain,
		body: &sensitivityResponse{
			Sensitivity: schema.FromSensitivity(res),
			SystemHash:  q.hash,
			Cache:       state,
			WarmStart:   warmStart,
			ElapsedMS:   elapsedMS(q.start),
		},
		degraded: degradedBy(res.Quality),
	}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.met.request("healthz", http.StatusOK)
	resp := map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.met.start).Seconds(),
		"cache_entries":  s.store.Len(),
	}
	if s.store.Fleet() {
		resp["fleet_self"] = s.store.Self()
		resp["fleet_peers"] = len(s.store.Peers())
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.request("metrics", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w)
}
