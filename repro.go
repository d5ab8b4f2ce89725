// Package repro is a Go implementation of Typical Worst-Case Analysis
// (TWCA) for task chains — a reproduction of Hammadeh, Ernst, Quinton,
// Henia, Rioux, "Bounding Deadline Misses in Weakly-Hard Real-Time
// Systems with Task Dependencies", DATE 2017.
//
// The library analyzes uniprocessor systems whose workload consists of
// task chains — under Static Priority Preemptive (SPP) scheduling by
// default, with pluggable alternatives (PolicyNPSPP, PolicyEDF for
// analysis and simulation; PolicyJCL simulation-only) selected through
// Options.Policy / SimConfig.Policy — and computes:
//
//   - worst-case end-to-end latencies (WCL) per chain, via the
//     busy-window analysis of §IV of the paper;
//   - deadline miss models dmm(k) per chain — the weakly-hard guarantee
//     "at most dmm(k) of any k consecutive executions miss their
//     deadline" — via the combination/ILP analysis of §V;
//   - empirical validation through a cycle-accurate discrete-event
//     simulator of the same execution semantics.
//
// # Quick start
//
//	b := repro.NewBuilder("example")
//	b.Chain("video").Periodic(200).Deadline(200).
//		Task("decode", 8, 4).Task("scale", 7, 6).Task("emit", 1, 41)
//	b.Chain("irq").Sporadic(700).Overload().
//		Task("isr", 4, 10).Task("dsr", 3, 10)
//	sys, err := b.Build()
//	...
//	req := repro.AnalysisRequest{System: sys, Chain: "video"}
//	an, err := req.DMM(context.Background())
//	r, err := an.DMM(10) // bound on misses out of 10 activations
//
// # Contexts, cancellation and deadlines
//
// Every analysis runs under a context and polls it cooperatively —
// inside the busy-window fixed points, the combination classification,
// the ILP branch-and-bound and the simulator event loop — returning an
// error wrapping ErrCanceled (and the underlying context.Canceled or
// context.DeadlineExceeded) when the context ends the work early. The
// context-free convenience wrappers (Simulate, the deprecated
// Analyze*) run over context.Background() and never fail this way.
//
// # Errors
//
// Failures are reported through exported sentinels that work with
// errors.Is: ErrNoChain (the named chain does not exist),
// ErrNoDeadline (DMM analysis of a deadline-free chain),
// ErrTooManyCombinations (the Def. 9 combination space exceeds
// Options.MaxCombinations), ErrUnschedulable (the busy-window analysis
// cannot close — the priority level is overloaded),
// ErrInfeasibleConstraint (a sensitivity query whose constraint fails
// already on the nominal system), ErrPolicyUnsupported (an analysis
// under a simulation-only scheduling policy), ErrInvalidOptions, and
// ErrCanceled (see above). Messages keep the full detail; the sentinels
// make the classes programmatic.
//
// # Requests
//
// AnalysisRequest is the single programmatic entry point: it bundles
// the inputs every analysis shares — system, target chain, options —
// and carries methods for each analysis kind (DMM, Latency,
// Sensitivity). It validates once and keeps call sites uniform across
// the service, CLI and tests. The older per-kind Analyze* functions are
// deprecated thin wrappers kept for source compatibility; they gain no
// new capabilities (SimulateMapped, the first of them to be folded in,
// is already gone — use SimConfig.Mapping with Simulate).
//
// # Options
//
// The zero value of Options and LatencyOptions selects the documented
// defaults (MaxCombinations 1<<16; MaxQ 4096, Horizon 1<<40,
// MaxIterations 1<<20). Negative values are rejected by Validate,
// which every facade entry point calls before analyzing.
//
// This root package is a thin facade over the implementation packages
// in internal/ (curves, model, segments, latency, ilp, twca, sim); see
// DESIGN.md for the architecture, EXPERIMENTS.md for the reproduction
// of the paper's tables and figures, and docs/SERVICE.md for the
// long-running analysis service built on this API (cmd/twca-serve).
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/casestudy"
	"repro/internal/curves"
	"repro/internal/degrade"
	"repro/internal/dsl"
	"repro/internal/latency"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/sensitivity"
	"repro/internal/sim"
	"repro/internal/twca"
	"repro/internal/weaklyhard"
)

// Exported error sentinels. All errors returned by the facade's
// analysis entry points match at most one of these under errors.Is;
// the underlying causes (e.g. context.DeadlineExceeded under
// ErrCanceled) remain in the chain for errors.As/Is too.
var (
	// ErrNoChain reports that the system has no chain with the
	// requested name.
	ErrNoChain = errors.New("repro: no such chain")
	// ErrNoDeadline reports a DMM analysis of a chain without an
	// end-to-end deadline — "deadline miss" is undefined for it.
	ErrNoDeadline = twca.ErrNoDeadline
	// ErrTooManyCombinations reports that the Def. 9 combination space
	// exceeds Options.MaxCombinations; raise the limit or reduce the
	// number of overload chains.
	ErrTooManyCombinations = twca.ErrTooManyCombinations
	// ErrUnschedulable reports that the busy-window analysis cannot
	// bound the chain: a fixed point diverged or no busy window closed
	// below MaxQ, i.e. the priority level is overloaded.
	ErrUnschedulable = errors.New("repro: chain is unschedulable at analysis horizon")
	// ErrCanceled reports that a context ended the analysis early; the
	// chain also matches context.Canceled or context.DeadlineExceeded.
	ErrCanceled = errors.New("repro: analysis canceled")
	// ErrInvalidOptions reports an Options/LatencyOptions/
	// SensitivityOptions value rejected by Validate (e.g. a negative
	// iteration budget), or an AnalysisRequest without a system.
	ErrInvalidOptions = errors.New("repro: invalid options")
	// ErrInfeasibleConstraint reports a sensitivity query whose
	// weakly-hard constraint does not verify on the nominal system —
	// dmm(k) > m, so there is no slack to measure.
	ErrInfeasibleConstraint = sensitivity.ErrInfeasibleConstraint
	// ErrPolicyUnsupported reports a policy/operation mismatch: an
	// analysis (DMM, latency, sensitivity) under a simulation-only
	// policy such as PolicyJCL, or a non-preemptive policy on the
	// multi-resource simulator. Unknown policy names are ErrInvalidOptions
	// instead.
	ErrPolicyUnsupported = policy.ErrUnsupported
	// ErrWorkerPanic reports that a task in a parallel analysis driver
	// panicked. The panic is recovered inside the worker pool, converted
	// to an error carrying the panic value and stack, and fails only the
	// analysis that owned the task — never the process.
	ErrWorkerPanic = parallel.ErrWorkerPanic
)

// mapErr translates implementation-package errors into the facade's
// sentinel classes while keeping the original chain intact (Go 1.20
// multi-%w), so both errors.Is(err, repro.ErrCanceled) and
// errors.Is(err, context.Canceled) hold.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, latency.ErrDiverged) || errors.Is(err, latency.ErrKExceeded):
		return fmt.Errorf("%w: %w", ErrUnschedulable, err)
	}
	return err
}

// Core model types, re-exported from the implementation packages.
type (
	// Time is a point in or duration of discrete model time.
	Time = curves.Time
	// EventModel is an activation pattern (arrival curves η± and
	// distance functions δ±).
	EventModel = curves.EventModel
	// Task is one task of a chain: a unique priority plus execution
	// time bounds.
	Task = model.Task
	// Chain is a task chain σ with an activation model, a kind and an
	// optional end-to-end deadline.
	Chain = model.Chain
	// System is a set of chains sharing one SPP processor.
	System = model.System
	// Builder assembles systems fluently; see NewBuilder.
	Builder = model.Builder
)

// Analysis types.
type (
	// LatencyOptions tunes the §IV busy-window analysis.
	LatencyOptions = latency.Options
	// LatencyResult is the outcome of AnalyzeLatency: K, B(q), WCL, N.
	LatencyResult = latency.Result
	// Options tunes TWCA (AnalyzeDMM).
	Options = twca.Options
	// Analysis is a prepared TWCA of one target chain; query DMM(k),
	// Curve, Breakpoints or WeaklyHard on it.
	Analysis = twca.Analysis
	// DMMResult is one dmm(k) evaluation with its Ω capacities.
	DMMResult = twca.DMMResult
	// Combination is a set of overload active segments (Def. 9).
	Combination = twca.Combination
)

// Degradation types. Setting Options.Degrade opts an analysis into the
// graceful-degradation ladder: when an exact analysis exhausts a budget
// (combination blow-up, ILP node cap, context deadline), the result
// descends to a cheaper but still sound over-approximation instead of
// failing, and carries a DegradeInfo tag naming the rung and the
// tripped budget. dmm values satisfy dmm_degraded(k) ≥ dmm_exact(k) at
// every k — degraded answers may be pessimistic, never optimistic.
type (
	// Quality ranks result fidelity on the ladder: QualityExact <
	// QualitySafeUpperBound < QualityTrivial. The zero value is
	// QualityExact, so untagged results read as exact.
	Quality = degrade.Quality
	// DegradeInfo tags one result with its Quality, the exhausted
	// budget ("deadline", "ilp-nodes", "combinations", ...) and the
	// soundness rung that produced the value.
	DegradeInfo = degrade.Info
	// DegradePolicy is the Options.Degrade field: Allow enables descent
	// on budget exhaustion; SkipExact starts on the omega-sum rung
	// without attempting the exact analysis (the service's circuit
	// breaker uses this).
	DegradePolicy = degrade.Policy
)

// Quality levels, best to worst.
const (
	QualityExact          = degrade.Exact
	QualitySafeUpperBound = degrade.SafeUpperBound
	QualityTrivial        = degrade.Trivial
)

// Sensitivity types.
type (
	// SensitivityOptions selects the metrics and search brackets of a
	// sensitivity query (constraint, scaling quantum, frontier range).
	SensitivityOptions = sensitivity.Options
	// SensitivityResult holds WCET slack, breakdown jitter/distance and
	// the (m, k) frontier of one query, plus its probe/analysis cost.
	SensitivityResult = sensitivity.Result
	// ProbeFunc intercepts the DMM analyses a sensitivity query issues
	// for perturbed systems; see AnalysisRequest.SensitivityWith. The
	// hash argument is the perturbed system's CanonicalHash ("" when
	// the system has no JSON form), precomputed so caching layers can
	// key on it directly. The final WarmStart argument carries the
	// engine's incremental hints; pass it through to DMMWarm (or
	// NewWarmCtx) on a cache miss — it never changes result values, so
	// caches may ignore it for keying.
	ProbeFunc = sensitivity.AnalyzeFunc
	// SensitivityWarmStore retains completed probe analyses across
	// sensitivity queries, keyed by perturbation coordinate. Sharing one
	// store across queries (AnalysisRequest.SensitivityWarm) makes
	// repeated sweeps over the same system incremental: re-probed
	// coordinates are answered from the store, and fresh probes are
	// warm-started from their nearest solved neighbor. Purely an
	// optimization — results are byte-identical with or without it, and
	// SensitivityOptions.NoWarmStart opts a query out entirely.
	SensitivityWarmStore = sensitivity.WarmStore
	// SensitivityWarmStats is a snapshot of a warm store's hit/miss
	// counters.
	SensitivityWarmStats = sensitivity.WarmStats
	// WarmStart carries incremental warm-start hints into a DMM
	// analysis (AnalysisRequest.DMMWarm): the completed analysis of a
	// demand-dominated neighbor system seeds the busy-window fixed
	// points and the Theorem-3 ILP incumbents. Hints are advisory and
	// never change result values.
	WarmStart = twca.WarmStart
)

// NewSensitivityWarmStore returns an empty warm store for incremental
// sensitivity sweeps; see SensitivityWarmStore.
func NewSensitivityWarmStore() *SensitivityWarmStore { return sensitivity.NewWarmStore() }

// Simulation types.
type (
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// SimResult holds per-chain simulation statistics.
	SimResult = sim.Result
	// ChainStats is the per-chain outcome of a simulation.
	ChainStats = sim.ChainStats
)

// Chain kinds.
const (
	Synchronous  = model.Synchronous
	Asynchronous = model.Asynchronous
)

// Simulation policies.
const (
	Dense         = sim.Dense
	RandomSpacing = sim.RandomSpacing
	Rare          = sim.Rare
	Never         = sim.Never
	WorstCase     = sim.WorstCase
	RandomExec    = sim.RandomExec
)

// Scheduling policies, for Options.Policy, LatencyOptions.Policy and
// SimConfig.Policy. The empty string means PolicySPP everywhere, so the
// zero values keep their pre-policy behavior. PolicySPP, PolicyNPSPP
// and PolicyEDF support both analysis and simulation; PolicyJCL is
// simulation-only — analyzing under it fails with ErrPolicyUnsupported.
const (
	// PolicySPP is static-priority preemptive scheduling — the paper's
	// model and the default.
	PolicySPP = policy.SPP
	// PolicyNPSPP is static-priority non-preemptive scheduling: a
	// started task runs to completion; analysis adds a blocking term.
	PolicyNPSPP = policy.NPSPP
	// PolicyEDF is preemptive earliest-deadline-first over job absolute
	// deadlines (chain deadline, else minimum inter-arrival distance).
	PolicyEDF = policy.EDF
	// PolicyJCL is job-class-level scheduling: per-job priorities keyed
	// on the chain's recent deadline-hit streak. Simulation-only.
	PolicyJCL = policy.JCL
)

// PolicyNames lists the scheduling-policy names in sorted order.
func PolicyNames() []string { return policy.Names() }

// NewBuilder starts a fluent system description.
func NewBuilder(name string) *Builder { return model.NewBuilder(name) }

// Periodic returns a strictly periodic event model.
func Periodic(period Time) EventModel { return curves.NewPeriodic(period) }

// PeriodicJitter returns a periodic event model with release jitter and
// a minimum inter-arrival distance.
func PeriodicJitter(period, jitter, dmin Time) EventModel {
	return curves.NewPeriodicJitter(period, jitter, dmin)
}

// Sporadic returns a sporadic event model with minimum distance d.
func Sporadic(d Time) EventModel { return curves.NewSporadic(d) }

// Burst returns a sporadic-burst event model.
func Burst(outer Time, size int64, inner Time) EventModel {
	return curves.NewBurst(outer, size, inner)
}

// AnalysisRequest bundles the inputs shared by every analysis kind:
// the system, the target chain, and the analysis options. Build one and
// call the method for the analysis you need — DMM, Latency, Sensitivity
// — instead of threading the same three values through per-kind
// function signatures. The zero Options value selects the documented
// defaults for every kind; Latency reads only the nested
// Options.Latency, and Options.Baseline switches DMM (and sensitivity
// probes) to the structure-blind baseline abstraction.
type AnalysisRequest struct {
	System  *System
	Chain   string
	Options Options
}

// Validate checks the request: a system must be present, the options
// must validate (ErrInvalidOptions), and the chain must exist in the
// system (ErrNoChain).
func (r AnalysisRequest) Validate() error {
	if r.System == nil {
		return fmt.Errorf("%w: analysis request needs a system", ErrInvalidOptions)
	}
	if err := r.Options.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	if r.System.ChainByName(r.Chain) == nil {
		return fmt.Errorf("repro: no chain named %q: %w", r.Chain, ErrNoChain)
	}
	return nil
}

// DMM prepares the deadline-miss-model analysis of the request's chain
// (Theorem 3); query the returned Analysis for dmm at any k. The
// returned Analysis accepts the context again on its query methods
// (DMMCtx, BreakpointsCtx, CurveCtx) — construction and queries may run
// under different deadlines. When ctx ends the analysis early the error
// matches ErrCanceled (and the underlying context error) under
// errors.Is.
func (r AnalysisRequest) DMM(ctx context.Context) (*Analysis, error) {
	return r.DMMWarm(ctx, nil)
}

// DMMWarm is DMM with incremental warm-start hints: warm (usually the
// completed analysis of a demand-dominated neighbor system, as selected
// by a SensitivityWarmStore) seeds the busy-window fixed points and the
// ILP incumbents. Hints are advisory — unusable ones are silently
// ignored and every returned value is identical to DMM's; only the work
// spent shrinks. A nil warm is exactly DMM.
func (r AnalysisRequest) DMMWarm(ctx context.Context, warm *WarmStart) (*Analysis, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	an, err := twca.NewWarmCtx(ctx, r.System, r.System.ChainByName(r.Chain), r.Options, warm)
	return an, mapErr(err)
}

// Latency computes the worst-case end-to-end latency of the request's
// chain (Theorems 1 and 2). It reads only Options.Latency; the other
// option fields are DMM-specific and ignored here.
func (r AnalysisRequest) Latency(ctx context.Context) (*LatencyResult, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	lopts := r.Options.Latency
	if lopts.Policy == "" {
		// Options.Policy names the policy for every analysis kind; the
		// nested Latency.Policy only overrides it (Validate rejects a
		// conflict between the two).
		lopts.Policy = r.Options.Policy
	}
	res, err := latency.AnalyzeCtx(ctx, r.System, r.System.ChainByName(r.Chain), lopts)
	return res, mapErr(err)
}

// Sensitivity measures how far the request's chain is from violating a
// weakly-hard constraint: WCET slack (uniform and per-task), breakdown
// jitter and minimal inter-arrival distance per overload chain, and the
// (m, k) feasibility frontier. Options configures the underlying DMM
// probes exactly as DMM does; sopts selects the constraint, metrics and
// search brackets. The error matches ErrInfeasibleConstraint when the
// constraint fails already on the nominal system.
func (r AnalysisRequest) Sensitivity(ctx context.Context, sopts SensitivityOptions) (*SensitivityResult, error) {
	return r.SensitivityWith(ctx, sopts, nil)
}

// SensitivityWith is Sensitivity with a probe hook: every DMM analysis
// of a perturbed system goes through probe, which receives the
// perturbed system's CanonicalHash so caching layers can reuse
// completed analyses by content (the analysis service routes probes
// through its artifact cache this way). A nil probe analyzes directly.
func (r AnalysisRequest) SensitivityWith(ctx context.Context, sopts SensitivityOptions, probe ProbeFunc) (*SensitivityResult, error) {
	return r.SensitivityWarm(ctx, sopts, probe, nil)
}

// SensitivityWarm is SensitivityWith with a shared warm store: warm
// carries completed probe analyses across queries, so repeated sweeps
// over the same system (a parameter study, the service's sensitivity
// endpoint) skip re-solving coordinates they have already probed and
// warm-start the rest from their nearest solved neighbor. The store is
// purely an optimization — results are byte-identical for any store
// state, and sopts.NoWarmStart bypasses it entirely. A nil warm gives
// the query a private store (probes still warm-start each other within
// the query).
func (r AnalysisRequest) SensitivityWarm(ctx context.Context, sopts SensitivityOptions, probe ProbeFunc, warm *SensitivityWarmStore) (*SensitivityResult, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if err := sopts.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	for _, name := range sopts.Tasks {
		if !systemHasTask(r.System, name) {
			return nil, fmt.Errorf("%w: no task named %q", ErrInvalidOptions, name)
		}
	}
	res, err := sensitivity.Engine{Analyze: probe, Warm: warm}.Query(ctx, r.System, r.Chain, r.Options, sopts)
	return res, mapErr(err)
}

func systemHasTask(sys *System, name string) bool {
	for _, c := range sys.Chains {
		for _, t := range c.Tasks {
			if t.Name == name {
				return true
			}
		}
	}
	return false
}

// AnalyzeLatency computes the worst-case end-to-end latency of the
// named chain (Theorems 1 and 2 of the paper).
//
// Deprecated: use AnalysisRequest.Latency, which bundles the inputs
// shared by every analysis kind. This wrapper remains for source
// compatibility.
func AnalyzeLatency(sys *System, chain string, opts LatencyOptions) (*LatencyResult, error) {
	return AnalyzeLatencyCtx(context.Background(), sys, chain, opts)
}

// AnalyzeLatencyCtx is AnalyzeLatency with cooperative cancellation:
// when ctx ends the analysis early the returned error matches
// ErrCanceled (and the underlying context error) under errors.Is.
//
// Deprecated: use AnalysisRequest.Latency.
func AnalyzeLatencyCtx(ctx context.Context, sys *System, chain string, opts LatencyOptions) (*LatencyResult, error) {
	return AnalysisRequest{System: sys, Chain: chain, Options: Options{Latency: opts}}.Latency(ctx)
}

// AnalyzeDMM prepares the deadline-miss-model analysis of the named
// chain (Theorem 3). Use the returned Analysis to evaluate dmm at any
// k.
//
// Deprecated: use AnalysisRequest.DMM.
func AnalyzeDMM(sys *System, chain string, opts Options) (*Analysis, error) {
	return AnalyzeDMMCtx(context.Background(), sys, chain, opts)
}

// AnalyzeDMMCtx is AnalyzeDMM with cooperative cancellation; see
// AnalysisRequest.DMM for the error contract.
//
// Deprecated: use AnalysisRequest.DMM.
func AnalyzeDMMCtx(ctx context.Context, sys *System, chain string, opts Options) (*Analysis, error) {
	return AnalysisRequest{System: sys, Chain: chain, Options: opts}.DMM(ctx)
}

// AnalyzeDMMBaseline is AnalyzeDMM with the structure-blind abstraction
// of classic independent-task TWCA, for comparison.
//
// Deprecated: set Options.Baseline and use AnalysisRequest.DMM; the
// flag form travels through option surfaces (the analysis service's
// wire options, stored fingerprints) where a separate entry point
// cannot.
func AnalyzeDMMBaseline(sys *System, chain string, opts Options) (*Analysis, error) {
	opts.Baseline = true
	return AnalysisRequest{System: sys, Chain: chain, Options: opts}.DMM(context.Background())
}

// Simulate runs the discrete-event simulator.
func Simulate(sys *System, cfg SimConfig) (*SimResult, error) {
	return SimulateCtx(context.Background(), sys, cfg)
}

// SimulateCtx is Simulate with cooperative cancellation: the event loop
// polls ctx every few thousand scheduling events; see AnalyzeLatencyCtx
// for the error contract.
func SimulateCtx(ctx context.Context, sys *System, cfg SimConfig) (*SimResult, error) {
	r, err := sim.RunCtx(ctx, sys, cfg)
	return r, mapErr(err)
}

// CaseStudy returns the paper's Thales case study (Fig. 4).
func CaseStudy() *System { return casestudy.New() }

// Constraint is a weakly-hard (m, k) requirement: at most M misses in
// any K consecutive executions.
type Constraint = weaklyhard.Constraint

// Verify checks a weakly-hard constraint against a prepared analysis.
func Verify(an *Analysis, c Constraint) (bool, error) { return weaklyhard.Verify(an, c) }

// MaxConsecutiveMisses bounds the longest run of back-to-back misses
// the analysis cannot exclude (searching up to maxC).
func MaxConsecutiveMisses(an *Analysis, maxC int64) (int64, error) {
	return weaklyhard.MaxConsecutiveMisses(an, maxC)
}

// Lint reports non-fatal design smells in a system description.
func Lint(sys *System) []string { return model.Lint(sys) }

// ParseDSL reads a system from its textual DSL form (see internal/dsl
// for the grammar).
func ParseDSL(src string) (*System, error) { return dsl.Parse(src) }

// FormatDSL renders a system in canonical DSL form.
func FormatDSL(sys *System) (string, error) { return dsl.Format(sys) }

// LoadSystem reads a JSON system description.
func LoadSystem(r io.Reader) (*System, error) { return model.Load(r) }

// StoreSystem writes a system as JSON.
func StoreSystem(w io.Writer, sys *System) error { return model.Store(w, sys) }

// CanonicalHash returns a content-addressed identity of the system: the
// hex-encoded SHA-256 of its canonical JSON serialization. Two systems
// hash equal iff they serialize identically; the analysis service uses
// this as its cache key.
func CanonicalHash(sys *System) (string, error) { return model.CanonicalHash(sys) }
