package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"repro"
	"repro/internal/dsl"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/segments"
	"repro/internal/sensitivity"
	"repro/internal/store"
	"repro/internal/twca"
)

// replaySensQueries is how many sensitivity queries the replay derives
// from the workload's own dmm questions, so the sensitivity layer is
// timed on every workload; no workload sends sensitivity traffic.
const replaySensQueries = 6

// replayLRU bounds the replay's own artifact store; it holds every
// distinct question of the replayed prefix.
const replayLRU = 1024

// replayer sends a fixed prefix of the workload's stream through each
// layer's public entry point in pipeline order, one span per call.
type replayer struct {
	tr    *tracer
	node  *cluster // one replica: handler and transport timings
	fleet *cluster // three replicas: relay hop timings
	lru   *store.Store
	ring  *store.Store
	warm  *repro.SensitivityWarmStore

	sensLeft int
	ops      int
	counts   work // analysis effort of the replayed ops
	sensQ    int  // sensitivity queries replayed
	docBytes int64
	docs     int
}

func newReplayer(tr *tracer) (*replayer, error) {
	node, err := startCluster(1, false)
	if err != nil {
		return nil, err
	}
	fleet, err := startCluster(3, false)
	if err != nil {
		node.close()
		return nil, err
	}
	return &replayer{
		tr: tr, node: node, fleet: fleet,
		lru:      store.New(store.Config{Base: bgCtx, Capacity: replayLRU}),
		ring:     store.New(store.Config{Base: bgCtx, Capacity: replayLRU, Self: fleet.urls[0], Peers: fleet.urls}),
		warm:     repro.NewSensitivityWarmStore(),
		sensLeft: replaySensQueries,
	}, nil
}

func (rp *replayer) close() {
	rp.node.close()
	rp.fleet.close()
	rp.lru.Close()
	rp.ring.Close()
}

// timed runs fn inside a span named name under parent.
func (rp *replayer) timed(name string, parent int32, op int, fn func() error) (int32, error) {
	id := rp.tr.start(name, parent, op)
	err := fn()
	rp.tr.finish(id)
	if err != nil {
		return id, fmt.Errorf("%s: %w", name, err)
	}
	return id, nil
}

// op replays the query at stream position pos.
func (rp *replayer) op(pos int, q *query, campaign bool) error {
	rp.ops++
	if q.body == nil {
		if err := q.render(); err != nil {
			return err
		}
	}
	root := rp.tr.start("op", -1, pos)
	defer rp.tr.finish(root)

	wire := q.body
	if campaign {
		if q.item == nil {
			if err := q.renderItem(); err != nil {
				return err
			}
		}
		wire = q.item
	}
	var env wireRequest
	if _, err := rp.timed("service.decode", root, pos, func() error { return decodeStrict(wire, &env) }); err != nil {
		return err
	}
	var sys *model.System
	var err error
	if env.SystemDSL != "" {
		_, err = rp.timed("dsl.parse", root, pos, func() (err error) { sys, err = dsl.Parse(env.SystemDSL); return err })
	} else {
		_, err = rp.timed("model.decode", root, pos, func() error { sys = new(model.System); return json.Unmarshal(env.System, sys) })
	}
	if err != nil {
		return err
	}
	var hash string
	if _, err := rp.timed("model.hash", root, pos, func() (err error) { hash, err = model.CanonicalHash(sys); return err }); err != nil {
		return err
	}
	rp.timed("store.route", root, pos, func() error { rp.ring.Route("m:" + hash); return nil })

	key := fmt.Sprintf("%s|%s|%s|%v|%d|%v", q.Kind, hash, q.Chain, q.K, q.BPMaxK, q.Constraints)
	doc, ok := rp.lru.Peek(key)
	if !ok {
		// First sight of this question: run the analysis layers and
		// keep the document, as the service's store does.
		d, aerr := rp.analyze(root, pos, sys, q)
		if aerr != nil {
			return aerr
		}
		rp.lru.Add(key, d)
		doc = d
	}
	if _, err := rp.timed("store.lookup", root, pos, func() error {
		_, state, err := rp.lru.Do(bgCtx, key, func(context.Context) (any, error) { return doc, nil })
		if err == nil && state != store.OutcomeHit {
			err = fmt.Errorf("lookup was a %s", state)
		}
		return err
	}); err != nil {
		return err
	}
	var encoded []byte
	if _, err := rp.timed("schema.encode", root, pos, func() (err error) { encoded, err = json.MarshalIndent(doc, "", "  "); return err }); err != nil {
		return err
	}
	rp.docBytes += int64(len(encoded))
	rp.docs++
	return rp.wirePaths(root, pos, q)
}

// analyze times the analysis layers for q on sys and returns the
// response document they assemble.
func (rp *replayer) analyze(root int32, pos int, sys *model.System, q *query) (any, error) {
	chain := sys.ChainByName(q.Chain)
	if chain == nil {
		return nil, fmt.Errorf("no chain %q", q.Chain)
	}
	opts := serviceOptions()
	var info *segments.Info
	segID, _ := rp.timed("segments.analyze", root, pos, func() error { info = segments.Analyze(sys, chain); return nil })
	var lat *latency.Result
	latID, err := rp.timed("latency.analyze", root, pos, func() (err error) { lat, err = latency.AnalyzeInfoCtx(bgCtx, info, opts.Latency); return err })
	if err != nil {
		return nil, err
	}
	rp.counts.Iterations += lat.Iterations
	if q.Kind == "latency" {
		var doc schema.Latency
		rp.timed("schema.assemble", root, pos, func() error { doc = schema.FromLatency(lat); return nil })
		return latencyResponse{Latency: doc}, nil
	}

	// twca.NewCtx runs segments and latency inside: their standalone
	// spans become its children.
	var an *twca.Analysis
	conID, err := rp.timed("twca.construct", root, pos, func() (err error) { an, err = twca.NewCtx(bgCtx, sys, chain, opts); return err })
	if err != nil {
		return nil, err
	}
	rp.reparent(segID, conID)
	rp.reparent(latID, conID)
	rp.counts.Combinations += int64(len(an.Combinations))

	ks, bp := q.K, q.BPMaxK
	switch q.Kind {
	case "verify":
		ks, bp = nil, 0
		for _, c := range q.Constraints {
			ks = append(ks, c.K)
		}
	}
	if len(ks) == 0 && bp == 0 {
		ks = []int64{1, 10, 100}
	}
	ilpID, err := rp.timed("ilp.solve", root, pos, func() error {
		rs, err := an.CurveCtx(bgCtx, ks)
		for _, r := range rs {
			rp.counts.ILPNodes += r.ILPNodes
		}
		if err != nil || bp == 0 {
			return err
		}
		rs, err = an.BreakpointsCtx(bgCtx, bp)
		for _, r := range rs {
			rp.counts.ILPNodes += r.ILPNodes
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// schema.FromAnalysisStats runs the ILP inside; it gets a fresh
	// analysis (the first one's DMM memo is warm) and the standalone ILP
	// span as its child.
	fresh, err := twca.NewCtx(bgCtx, sys, chain, opts)
	if err != nil {
		return nil, err
	}
	if q.Kind == "verify" {
		// The service assembles a verification from one dmm query per
		// constraint.
		resp := verifyResponse{SchemaVersion: schema.Version, Chain: q.Chain}
		asmID, err := rp.timed("schema.assemble", root, pos, func() error {
			for _, c := range q.Constraints {
				r, err := fresh.DMMCtx(bgCtx, c.K)
				if err != nil {
					return err
				}
				resp.Results = append(resp.Results, verifyResult{M: c.M, K: c.K, Holds: r.Value <= c.M, DMM: r.Value,
					Quality: r.Quality.Quality.String(), Budget: r.Quality.Budget})
			}
			return nil
		})
		rp.reparent(ilpID, asmID)
		return resp, err
	}
	var doc schema.Analysis
	asmID, err := rp.timed("schema.assemble", root, pos, func() (err error) { doc, _, err = schema.FromAnalysisStats(bgCtx, fresh, ks, bp); return err })
	if err != nil {
		return nil, err
	}
	rp.reparent(ilpID, asmID)

	if rp.sensLeft > 0 && q.Kind == "dmm" {
		if err := rp.sensitivity(root, pos, an, q.Chain); err != nil {
			return nil, err
		}
	}
	return dmmResponse{Analysis: doc}, nil
}

// sensitivity times one sensitivity query on an's system: the slack of
// its chain's first task and a short frontier, against the constraint
// (dmm(10), 10), which holds on the nominal system by construction.
func (rp *replayer) sensitivity(root int32, pos int, an *twca.Analysis, chain string) error {
	r, err := an.DMMCtx(bgCtx, 10)
	if err != nil || r.Value >= 10 {
		return err // no feasible constraint with k = 10; derive from a later question
	}
	rp.sensLeft--
	opts := repro.SensitivityOptions{Constraint: repro.Constraint{M: r.Value, K: 10}, FrontierMaxK: 5, Tasks: []string{an.Target.Tasks[0].Name}}
	var res *sensitivity.Result
	_, err = rp.timed("sensitivity.query", root, pos, func() (err error) {
		res, err = repro.AnalysisRequest{System: an.Sys, Chain: chain, Options: serviceOptions()}.SensitivityWarm(bgCtx, opts, nil, rp.warm)
		return err
	})
	if err != nil {
		return err
	}
	rp.sensQ++
	rp.counts.Probes += res.Probes
	rp.counts.Analyses += res.Analyses
	return nil
}

// reparent makes span id a child of parent (see aggregate).
func (rp *replayer) reparent(id, parent int32) { rp.tr.spans[id].Parent = parent }

// wirePaths times the service on a store hit: in-process through the
// handler, over loopback, and from a replica that relays to the owner.
func (rp *replayer) wirePaths(root int32, pos int, q *query) error {
	node := rp.node.urls[0]
	if _, _, err := post(node+q.path(), q.body); err != nil { // fill
		return err
	}
	if _, err := rp.timed("service.handler", root, pos, func() error {
		rec := httptest.NewRecorder()
		rp.node.svcs[0].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, q.path(), bytes.NewReader(q.body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := rp.timed("service.roundtrip", root, pos, func() error { _, _, err := post(node+q.path(), q.body); return err }); err != nil {
		return err
	}

	_, servedBy, err := post(rp.fleet.urls[0]+q.path(), q.body) // fill at the owner
	if err != nil {
		return err
	}
	owner := rp.fleet.urls[0]
	if servedBy != "" {
		owner = servedBy
	}
	other := rp.fleet.urls[0]
	if other == owner {
		other = rp.fleet.urls[1]
	}
	if _, err := rp.timed("service.local", root, pos, func() error { _, _, err := post(owner+q.path(), q.body); return err }); err != nil {
		return err
	}
	_, err = rp.timed("service.relayed", root, pos, func() error {
		_, by, err := post(other+q.path(), q.body)
		if err == nil && by == "" {
			err = fmt.Errorf("%s answered without relaying", other)
		}
		return err
	})
	return err
}

// post sends one unary request and returns the body and the replica
// that served it when the answer was relayed.
func post(url string, body []byte) ([]byte, string, error) {
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST %s: %d %.200s", url, resp.StatusCode, b)
	}
	return b, resp.Header.Get("X-Twca-Served-By"), nil
}

// decodeStrict parses a request envelope the way the service does:
// unknown fields are an error.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
