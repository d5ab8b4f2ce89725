package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"

	"repro"
	"repro/internal/casestudy"
	"repro/internal/dsl"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/parallel"
)

// workload is one traffic mix. Every workload is a closed loop: each
// client sends its next request only after the previous answer arrived,
// because the service's callers (design tools, CI sweeps) each wait for
// their reply.
type workload struct {
	name     string
	replicas int // servers started in-process; >1 forms one ring
	clients  int // closed-loop clients, capped at the host's CPU count
	campaign bool
	why      string
}

// Every workload has one client. With two clients on a 2-CPU host, the
// clients and the handlers they wake contend for the CPUs, and identical
// runs differed by 20% in p50 and throughput as the runtime placed them;
// with one, by about 6%.
var workloads = []workload{
	{"warm-unary", 1, 1, false,
		"closed loop, 1 client, 1 node: dmm/latency/verify over a resident working set in JSON and DSL form; every request is a store hit (decode, hash, lookup, encode)"},
	{"cold-campaign", 1, 1, true,
		"closed loop, 1 client, 1 node: /v1/campaign batches of never-repeated case-study priority permutations; every item is a miss (segments, busy window, combinations, ILP)"},
	{"fleet-mixed", 3, 1, false,
		"closed loop, 1 client, 3 replicas on one ring, round-robin: resident working set plus a fixed share of fresh systems, so relays, peer hits and inserts all run"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizes of the generated inputs.
const (
	warmSystems     = 16 // case-study permutations in the warm working set
	fleetSystems    = 16 // resident systems of the fleet working set
	fleetFreshEvery = 10 // every 10th fleet request carries a fresh system
	campaignBatch   = 16 // items per /v1/campaign request
	warmupCampaign  = 64 // items of the cold workload's warm-up campaign
	// warmupSeed draws every workload's set-up inputs.
	warmupSeed = 1729
)

// streamPerSec is the op stream generated per second of run, about two
// to four times what one client completes on a 2-CPU host. A window that
// runs out of inputs ends early and still measures the time it ran.
var streamPerSec = map[string]int{
	"warm-unary": 25000, "fleet-mixed": 10000, "cold-campaign": 4000,
}

// query is one analysis question: the system, the endpoint kind and its
// parameters. The oracle answers it through the library; the wire body
// is what the server receives.
type query struct {
	Kind string // "dmm", "latency" or "verify"
	// Sys is the system; never-repeated case-study questions keep only
	// Perm, the priority permutation, and rebuild Sys on demand, so a
	// run's pool of them stays small.
	Sys         *model.System
	Perm        []int
	Chain       string
	DSL         bool // the system travels as system_dsl instead of system
	K           []int64
	BPMaxK      int64
	Constraints []repro.Constraint

	id   string          // campaign item id
	once bool            // appears once in the stream; rendered shortly before it is sent
	body []byte          // unary request body
	item json.RawMessage // campaign item, rendered shortly before it is sent
}

func (q *query) system() *model.System {
	if q.Sys != nil {
		return q.Sys
	}
	sys, err := casestudy.WithPriorities(q.Perm)
	if err != nil {
		panic(err) // Perm came from gen.Permutation
	}
	return sys
}

// path is the unary endpoint of q.
func (q *query) path() string {
	switch q.Kind {
	case "verify":
		return "/v1/verify"
	default:
		return "/v1/analyze/" + q.Kind
	}
}

// wireRequest is the client's view of the request envelope documented
// in docs/SERVICE.md.
type wireRequest struct {
	System          json.RawMessage  `json:"system,omitempty"`
	SystemDSL       string           `json:"system_dsl,omitempty"`
	Chain           string           `json:"chain"`
	K               []int64          `json:"k,omitempty"`
	BreakpointsMaxK int64            `json:"breakpoints_max_k,omitempty"`
	Constraints     []wireConstraint `json:"constraints,omitempty"`
	ID              string           `json:"id,omitempty"`
	Kind            string           `json:"kind,omitempty"`
}

type wireConstraint struct {
	M int64 `json:"m"`
	K int64 `json:"k"`
}

// wire renders q's request envelope; id/kind are set for campaign items.
func (q *query) wire(id string, campaign bool) (wireRequest, error) {
	w := wireRequest{Chain: q.Chain, K: q.K, BreakpointsMaxK: q.BPMaxK, ID: id}
	if campaign {
		w.Kind = q.Kind
	}
	if q.DSL {
		src, err := dsl.Format(q.system())
		if err != nil {
			return w, err
		}
		w.SystemDSL = src
	} else {
		raw, err := json.Marshal(q.system())
		if err != nil {
			return w, err
		}
		w.System = raw
	}
	for _, c := range q.Constraints {
		w.Constraints = append(w.Constraints, wireConstraint{M: c.M, K: c.K})
	}
	return w, nil
}

func (q *query) render() error {
	w, err := q.wire("", false)
	if err != nil {
		return err
	}
	q.body, err = json.Marshal(w)
	return err
}

func (q *query) renderItem() error {
	w, err := q.wire(q.id, true)
	if err != nil {
		return err
	}
	q.item, err = json.Marshal(w)
	return err
}

// prepare renders the once-sent queries at stream positions
// [from, from+n) and drops the bytes of those sent before from. Streams
// of never-repeated queries are large, so they are rendered in untimed
// gaps between windows rather than all up front.
func (in *inputs) prepare(campaign bool, from, n int) error {
	for _, qi := range in.stream[in.dropped:min(from, len(in.stream))] {
		if q := in.queries[qi]; q.once {
			q.body, q.item = nil, nil
		}
	}
	in.dropped = max(in.dropped, from)
	to := min(from+n, len(in.stream))
	return parallel.ForEach(runtime.NumCPU(), max(to-from, 0), func(i int) error {
		q := in.queries[in.stream[from+i]]
		switch {
		case !q.once || q.rendered(campaign):
			return nil
		case campaign:
			return q.renderItem()
		default:
			return q.render()
		}
	})
}

func (q *query) rendered(campaign bool) bool {
	if campaign {
		return q.item != nil
	}
	return q.body != nil
}

// inputs is everything one run sends, generated from the seed alone.
type inputs struct {
	// warmup is sent before timing starts (part of set-up).
	warmup []*query
	// queries are the distinct questions of the timed stream; stream
	// lists them in send order (indices into queries). Campaign
	// workloads send the stream in batches of campaignBatch.
	queries []*query
	stream  []int
	digest  string
	// dropped is the stream position up to which the bytes of sent
	// once-queries have been dropped.
	dropped int
}

// permutation draws a never-repeated case-study priority assignment
// (the paper's Figure 5 population).
func permutation(rng *rand.Rand, seen map[string]bool) []int {
	for {
		perm := gen.Permutation(rng, len(casestudy.TaskOrder))
		key := fmt.Sprint(perm)
		if !seen[key] {
			seen[key] = true
			return perm
		}
	}
}

func permutationSystem(rng *rand.Rand, seen map[string]bool) *model.System {
	return (&query{Perm: permutation(rng, seen)}).system()
}

var caseChains = []string{"sigma_c", "sigma_d"}

// unaryQuery draws a dmm, latency or verify question on sys.
func unaryQuery(rng *rand.Rand, sys *model.System, chain string, kind string, dslForm bool) *query {
	q := &query{Kind: kind, Sys: sys, Chain: chain, DSL: dslForm}
	switch kind {
	case "dmm":
		q.K = []int64{1, 1 + rng.Int63n(20), 10 + rng.Int63n(91)}
		if rng.Intn(2) == 0 {
			q.BPMaxK = 10 + rng.Int63n(41)
		}
	case "verify":
		k := 2 + rng.Int63n(19)
		q.Constraints = []repro.Constraint{{M: rng.Int63n(k), K: k}, {M: 1, K: 10}}
	}
	return q
}

// generate builds the run's inputs for w from seed.
func generate(w workload, seed int64, seconds int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	in := &inputs{}
	n := streamPerSec[w.name] * seconds
	// Set-up inputs (working sets, warm-up passes) come from a constant
	// seed, so set-up does the same work on every run; the run seed
	// draws the timed stream. The shared seen set keeps fresh systems
	// apart from the set-up ones.
	wrng := rand.New(rand.NewSource(warmupSeed))
	switch w.name {
	case "warm-unary":
		in.queries = workingSet(wrng, seen, warmSystems)
		in.warmup = in.queries
		in.stream = make([]int, n)
		for i := range in.stream {
			in.stream[i] = rng.Intn(len(in.queries))
		}
	case "fleet-mixed":
		ws := workingSet(wrng, seen, fleetSystems)
		in.queries = ws
		in.warmup = ws
		in.stream = make([]int, n)
		kinds := []string{"dmm", "latency", "verify"}
		for i := range in.stream {
			if i%fleetFreshEvery == fleetFreshEvery-1 {
				perm := permutation(rng, seen)
				q := unaryQuery(rng, nil, caseChains[rng.Intn(2)], kinds[rng.Intn(3)], rng.Intn(2) == 0)
				q.Perm, q.once = perm, true
				in.stream[i] = len(in.queries)
				in.queries = append(in.queries, q)
				continue
			}
			in.stream[i] = rng.Intn(len(ws))
		}
	case "cold-campaign":
		for i := 0; i < warmupCampaign; i++ {
			in.warmup = append(in.warmup, campaignQuery(wrng, seen))
		}
		for i := 0; i < n; i++ {
			q := campaignQuery(rng, seen)
			q.once = true
			in.queries = append(in.queries, q)
			in.stream = append(in.stream, i)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	h := sha256.New()
	for i, q := range in.warmup {
		q.id = fmt.Sprintf("w%d", i)
	}
	for i, q := range in.queries {
		if q.id == "" {
			q.id = fmt.Sprintf("c%d", i)
		}
	}
	for _, list := range [][]*query{in.warmup, in.queries} {
		for _, q := range list {
			switch {
			case q.once:
				// Rendered later; the digest covers what it is
				// rendered from.
				fmt.Fprintf(h, "%s|%s|%v|%s|%t|%v|%d|%v\n", q.id, q.Kind, q.Perm, q.Chain, q.DSL, q.K, q.BPMaxK, q.Constraints)
			case w.campaign:
				if err := q.renderItem(); err != nil {
					return nil, err
				}
				h.Write(q.item)
			case len(q.body) == 0: // a warm-up query may also be in the stream
				if err := q.render(); err != nil {
					return nil, err
				}
				h.Write([]byte(q.path()))
				h.Write(q.body)
			}
		}
	}
	for _, i := range in.stream {
		fmt.Fprintf(h, ",%d", i)
	}
	in.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return in, nil
}

// workingSet draws n resident systems and every (chain, kind, form)
// question on them: the same system is asked in JSON and in DSL form,
// which hash to the same artifacts.
func workingSet(rng *rand.Rand, seen map[string]bool, n int) []*query {
	var out []*query
	for i := 0; i < n; i++ {
		sys := permutationSystem(rng, seen)
		for _, chain := range caseChains {
			for _, kind := range []string{"dmm", "latency", "verify"} {
				base := unaryQuery(rng, sys, chain, kind, false)
				twin := *base
				twin.DSL = true
				out = append(out, base, &twin)
			}
		}
	}
	return out
}

// campaignQuery draws one cold item: three in four are dmm items with
// a breakpoint sweep, the rest latency items.
func campaignQuery(rng *rand.Rand, seen map[string]bool) *query {
	perm := permutation(rng, seen)
	chain := caseChains[rng.Intn(2)]
	dslForm := rng.Intn(2) == 0
	if rng.Intn(4) == 3 {
		return &query{Kind: "latency", Perm: perm, Chain: chain, DSL: dslForm}
	}
	return &query{Kind: "dmm", Perm: perm, Chain: chain, DSL: dslForm,
		K: []int64{1, 10, 100}, BPMaxK: 10 + rng.Int63n(11)}
}
