package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro"
	"repro/internal/parallel"
	"repro/internal/schema"
)

var bgCtx = context.Background()

// serviceOptions is what an empty "options" block means on the wire:
// library defaults with the degradation ladder allowed.
func serviceOptions() repro.Options {
	allow := repro.DegradePolicy{Allow: true}
	return repro.Options{Latency: repro.LatencyOptions{Degrade: allow}, Degrade: allow}
}

// The response documents as docs/SERVICE.md specifies them: the schema
// document followed by the envelope fields. Only cache and elapsed_ms
// may differ between the service's answer and the oracle's.
type dmmResponse struct {
	schema.Analysis
	SystemHash string  `json:"system_hash"`
	Cache      string  `json:"cache"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

type latencyResponse struct {
	schema.Latency
	SystemHash string  `json:"system_hash"`
	Cache      string  `json:"cache"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

type verifyResponse struct {
	SchemaVersion int            `json:"schema_version"`
	Chain         string         `json:"chain"`
	Results       []verifyResult `json:"results"`
	SystemHash    string         `json:"system_hash"`
	Cache         string         `json:"cache"`
}

type verifyResult struct {
	M       int64  `json:"m"`
	K       int64  `json:"k"`
	Holds   bool   `json:"holds"`
	DMM     int64  `json:"dmm"`
	Quality string `json:"quality"`
	Budget  string `json:"budget,omitempty"`
}

// envelopeMarker starts the envelope fields the comparison ignores; it
// is the last top-level "cache" key of an indented unary document.
var envelopeMarker = []byte(",\n  \"cache\": ")

// splitEnvelope cuts a unary document into the part compared byte for
// byte and the envelope tail.
func splitEnvelope(body []byte) (prefix, tail []byte) {
	i := bytes.LastIndex(body, envelopeMarker)
	if i < 0 {
		return body, nil
	}
	return body[:i], body[i:]
}

// work counts the analysis effort behind one answer. The counts come
// from result fields and repeat exactly for a given query.
type work struct {
	ILPNodes, Combinations, Iterations, Probes, Analyses int64
}

func (w *work) add(o work) {
	w.ILPNodes += o.ILPNodes
	w.Combinations += o.Combinations
	w.Iterations += o.Iterations
	w.Probes += o.Probes
	w.Analyses += o.Analyses
}

// expected is the library's answer to one query.
type expected struct {
	hash     string
	prefix   []byte // unary: indented document before the envelope
	analysis *schema.Analysis
	latency  *schema.Latency
	degraded bool // some value is tagged below exact quality
	work     work
}

// oracle computes expected answers through repro.AnalysisRequest and
// internal/schema, independently of the service.
type oracle struct {
	mu   sync.Mutex
	memo map[*query]*expected
}

func newOracle() *oracle {
	return &oracle{memo: map[*query]*expected{}}
}

// prepare computes the answers of qs (skipping known ones) on workers
// goroutines.
func (o *oracle) prepare(qs []*query, workers int) error {
	var todo []*query
	o.mu.Lock()
	for _, q := range qs {
		if _, ok := o.memo[q]; !ok {
			o.memo[q] = nil
			todo = append(todo, q)
		}
	}
	o.mu.Unlock()
	return parallel.ForEach(workers, len(todo), func(i int) error {
		e, err := o.answer(todo[i])
		if err != nil {
			return err
		}
		o.mu.Lock()
		o.memo[todo[i]] = e
		o.mu.Unlock()
		return nil
	})
}

func (o *oracle) get(q *query) *expected {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.memo[q]
}

func (o *oracle) answer(q *query) (*expected, error) {
	sys := q.system()
	hash, err := repro.CanonicalHash(sys)
	if err != nil {
		return nil, err
	}
	req := repro.AnalysisRequest{System: sys, Chain: q.Chain, Options: serviceOptions()}
	e := &expected{hash: hash}
	var doc any
	switch q.Kind {
	case "dmm":
		an, err := req.DMM(bgCtx)
		if err != nil {
			return nil, err
		}
		ks := q.K
		if len(ks) == 0 && q.BPMaxK == 0 {
			ks = []int64{1, 10, 100}
		}
		a, st, err := schema.FromAnalysisStats(bgCtx, an, ks, q.BPMaxK)
		if err != nil {
			return nil, err
		}
		e.analysis = &a
		e.degraded = a.Quality != "exact" || len(st.Degraded) > 0
		e.work = work{ILPNodes: st.ILPNodes, Combinations: int64(len(an.Combinations)), Iterations: an.Latency.Iterations}
		doc = dmmResponse{Analysis: a, SystemHash: hash}
	case "latency":
		res, err := req.Latency(bgCtx)
		if err != nil {
			return nil, err
		}
		l := schema.FromLatency(res)
		e.latency = &l
		e.degraded = res.Quality.Degraded()
		e.work = work{Iterations: res.Iterations}
		doc = latencyResponse{Latency: l, SystemHash: hash}
	case "verify":
		an, err := req.DMM(bgCtx)
		if err != nil {
			return nil, err
		}
		resp := verifyResponse{SchemaVersion: schema.Version, Chain: q.Chain, SystemHash: hash}
		e.work = work{Combinations: int64(len(an.Combinations)), Iterations: an.Latency.Iterations}
		for _, c := range q.Constraints {
			r, err := an.DMMCtx(bgCtx, c.K)
			if err != nil {
				return nil, err
			}
			e.work.ILPNodes += r.ILPNodes
			e.degraded = e.degraded || r.Quality.Degraded()
			resp.Results = append(resp.Results, verifyResult{
				M: c.M, K: c.K, Holds: r.Value <= c.M, DMM: r.Value,
				Quality: r.Quality.Quality.String(), Budget: r.Quality.Budget,
			})
		}
		doc = resp
	default:
		return nil, fmt.Errorf("unknown query kind %q", q.Kind)
	}
	full, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	e.prefix, _ = splitEnvelope(full)
	return e, nil
}

// storeOutcomes are the cache values an answer may carry.
var storeOutcomes = map[string]bool{"hit": true, "miss": true, "coalesced": true}

// checkTail verifies an envelope tail of a unary document of kind: it
// must be exactly the service's rendering of its own cache and
// elapsed_ms values.
func checkTail(kind string, tail []byte) error {
	var v struct {
		Cache     string   `json:"cache"`
		ElapsedMS *float64 `json:"elapsed_ms"`
	}
	doc := append([]byte(`{"_":0`), tail...)
	if err := json.Unmarshal(doc, &v); err != nil {
		return fmt.Errorf("envelope %q: %v", tail, err)
	}
	if !storeOutcomes[v.Cache] {
		return fmt.Errorf("envelope %q: unknown cache outcome", tail)
	}
	var want bytes.Buffer
	cache, _ := json.Marshal(v.Cache)
	want.Write(envelopeMarker)
	want.Write(cache)
	if kind != "verify" {
		if v.ElapsedMS == nil {
			return fmt.Errorf("envelope %q: no elapsed_ms", tail)
		}
		ms, _ := json.Marshal(*v.ElapsedMS)
		want.WriteString(",\n  \"elapsed_ms\": ")
		want.Write(ms)
	}
	want.WriteString("\n}\n")
	if !bytes.Equal(want.Bytes(), tail) {
		return fmt.Errorf("envelope %q: want %q", tail, want.Bytes())
	}
	return nil
}

// expectedLine renders the campaign line the service must stream for q
// at index i of its batch, given the cache outcome the line reported.
func expectedLine(q *query, e *expected, index int, cache string) ([]byte, error) {
	line := schema.CampaignLine{
		SchemaVersion: schema.Version, Index: index, ID: q.id, Kind: q.Kind,
		SystemHash: e.hash, Cache: cache, Analysis: e.analysis, Latency: e.latency,
	}
	b, err := json.Marshal(line)
	return append(b, '\n'), err
}

// timeBudgetDegraded reports whether a document was degraded by a
// budget that depends on timing (request deadline, circuit breaker):
// such an answer is sound but may differ from the oracle's exact one.
func timeBudgetDegraded(doc []byte) bool {
	for _, b := range []string{"deadline", "breaker"} {
		if bytes.Contains(doc, []byte(`"budget": "`+b+`"`)) || bytes.Contains(doc, []byte(`"budget":"`+b+`"`)) {
			return true
		}
	}
	return false
}
