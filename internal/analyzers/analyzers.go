// Package analyzers implements twca-lint, the repository's custom
// static-analysis suite. It mechanically enforces the correctness
// contract that the analysis pipeline otherwise documents only in
// prose (CHANGES.md, DESIGN.md): deterministic output from the
// analysis packages, cooperative cancellation threaded through every
// context-taking function, errors.Is-able sentinel wrapping, and
// saturating arithmetic on Infinity/Ω-sentinel values.
//
// The suite is built on the standard library only (go/ast, go/parser,
// go/types): packages are enumerated with `go list -json`, parsed, and
// type-checked from source, so running it needs nothing beyond the Go
// toolchain that builds the repo. See cmd/twca-lint for the CLI and
// DESIGN.md "Static analysis" for the rule rationale.
//
// Findings can be suppressed inline with
//
//	//twcalint:ignore <rule> <reason>
//
// on the offending line or the line above it. The reason is mandatory:
// a bare //twcalint:ignore still suppresses, but is itself reported
// under the "suppression" rule so that undocumented exceptions cannot
// accumulate.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule names. Each analyzer reports findings under exactly one rule;
// RuleSuppression is reserved for the driver's own check that every
// //twcalint:ignore directive carries a reason.
const (
	RuleDeterminism = "determinism"
	RuleCtxFlow     = "ctxflow"
	RuleSentinels   = "sentinels"
	RuleSaturation  = "saturation"
	RuleSuppression = "suppression"
	RuleSoundflow   = "soundflow"
	RuleConcurrency = "concurrency"
	RuleErrRetain   = "errretain"
)

// Config scopes the rules to the packages and types they guard. The
// zero value disables the scoped rules; DefaultConfig returns the
// repository's real contract.
type Config struct {
	// DeterministicPkgs lists import-path suffixes of packages whose
	// output is consumed as-is downstream (golden files, wire format,
	// cache keys) and must therefore be bit-identical across runs. The
	// determinism rule applies only inside them.
	DeterministicPkgs []string
	// SaturatingTypes lists fully-qualified named types (as printed by
	// types.TypeString with full package paths) that use math.MaxInt64
	// as an "unbounded" sentinel. Raw + or * on such values overflows
	// to garbage instead of saturating.
	SaturatingTypes []string
	// SaturationPkgs lists import-path suffixes of the packages where
	// sentinel values (Infinity, Ω) actually flow and the saturation
	// rule applies. The package defining the guarded helpers
	// (internal/curves) is deliberately absent — it performs the raw
	// arithmetic after explicit guards — as are packages like
	// internal/sim whose Time values are finite by construction
	// (bounded by the simulation horizon).
	SaturationPkgs []string

	// SoundflowPkgs scopes the soundflow rule: packages where reported
	// bounds are computed and an accidentally tightened upper bound
	// becomes an unsound result.
	SoundflowPkgs []string
	// UpperSources are the qualified names (pkgpath.Name, or func IDs
	// like pkgpath.(*Recv).Name; module-path prefixes may be omitted)
	// whose values carry upper-bound taint: saturation sentinels,
	// degradation-ladder bound producers, Ω capacities.
	UpperSources []string
	// SoundflowAllow lists func IDs exempt from soundflow because a
	// dedicated dominance property test proves the reduction sound
	// (e.g. clamping dmm(k) to k, which is itself a Lemma-3 bound).
	SoundflowAllow []string

	// ConcurrencyPkgs scopes the concurrency rule: the service/store
	// tier where goroutine leaks and lock-holding blocking calls turn
	// into fleet-wide stalls.
	ConcurrencyPkgs []string

	// RetainPkgs scopes the errretain rule.
	RetainPkgs []string
	// RetainSinks are func IDs of cache/retain entry points that must
	// never receive an error value in any argument. Functions that
	// forward a parameter into a sink become sinks in that parameter
	// transitively.
	RetainSinks []string
}

// DefaultConfig is the contract twca-lint enforces on this repository.
func DefaultConfig() Config {
	return Config{
		DeterministicPkgs: []string{
			"internal/twca",
			"internal/latency",
			"internal/segments",
			"internal/schema",
			"internal/report",
			"internal/sensitivity",
			// The warm-start paths: branch-and-bound with carried
			// incumbents must explore the same tree for the same input,
			// or warm and cold runs stop being byte-identical.
			"internal/ilp",
			// Policy demand functions feed the deterministic analyses
			// above, and policy schedulers may randomize only through the
			// seeded engine RNG handed to NewScheduler (JCL's tie-break)
			// — never through the shared global source.
			"internal/policy",
			// The artifact store's consistent-hash ring: every replica
			// must compute identical key ownership from the same peer
			// set, so map iteration or non-seeded randomness in routing
			// would split the fleet's brain. (Its down-peer cooldown is
			// timer-driven rather than clock-comparing, so no wall-clock
			// read reaches a routing decision.)
			"internal/store",
		},
		SaturatingTypes: []string{"repro/internal/curves.Time"},
		SoundflowPkgs: []string{
			"internal/twca",
			"internal/latency",
			"internal/holistic",
			"internal/sensitivity",
		},
		UpperSources: []string{
			// The saturation sentinels: both stand for "unbounded", the
			// loosest possible upper bound. Producers whose results derive
			// from them (Ω, the omega-sum rung) become sources through the
			// call-graph summaries automatically.
			"internal/curves.Infinity",
			"internal/twca.OmegaUnbounded",
		},
		SoundflowAllow: []string{
			// The k-clamps: dmm(k) ≤ k is Lemma 3 (at most k misses in a
			// window of k), so clamping an Ω-derived value to k replaces
			// one upper bound with a provably tighter-but-still-sound one.
			// TestDegradedDominatesExact and the twca property tests pin
			// the dominance direction for these.
			"internal/twca.(*Analysis).DMMCtx",
			"internal/twca.(*Analysis).omegaSum",
			"internal/twca.(*Analysis).dmmValue",
		},
		ConcurrencyPkgs: []string{
			"internal/service",
			"internal/store",
			"internal/parallel",
			"internal/sim",
		},
		RetainPkgs: []string{
			"internal/store",
			"internal/sensitivity",
			"internal/service",
		},
		RetainSinks: []string{
			"internal/store.(*Store).Add",
			"internal/sensitivity.(*scopeStore).put",
		},
		SaturationPkgs: []string{
			"internal/latency",
			"internal/twca",
			"internal/holistic",
			"internal/sensitivity",
			"internal/segments",
			"internal/model",
			"internal/casestudy",
			"internal/policy",
		},
	}
}

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Rule    string
	Pos     token.Position
	Message string
	// Suppressed marks findings covered by a //twcalint:ignore
	// directive. They are kept (for -json reporting and for the
	// bare-directive check) but do not fail the run.
	Suppressed bool
	// Fix, when non-nil, is a machine-applicable rewrite that resolves
	// the finding (applied by `twca-lint -fix`).
	Fix *Fix
}

// Analyzer is one rule family: a name, a one-line contract, and the
// implementation run once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, CtxFlow, Sentinels, Saturation, Soundflow, Concurrency, ErrRetain}
}

// Pass is one analyzed package: its syntax, type information and the
// suite configuration. Analyzers call report to record findings.
type Pass struct {
	Config     Config
	Fset       *token.FileSet
	ImportPath string
	Pkg        *types.Package
	Info       *types.Info
	Files      []*ast.File

	// Prog is the interprocedural summary layer over every pass of the
	// run (see callgraph.go). AnalyzeAll fills it; a nil Prog degrades
	// the interprocedural rules to their intraprocedural core.
	Prog *Program

	findings []Finding
}

// report records a finding anchored at n's position.
func (p *Pass) report(n ast.Node, rule, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Rule:    rule,
		Pos:     p.Fset.Position(n.Pos()),
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe shorthand for the pass's expression types.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// pathMatches reports whether the pass's import path ends in one of
// the given path suffixes (matched on whole path elements, so
// "internal/report" does not match "internal/reporting").
func (p *Pass) pathMatches(suffixes []string) bool {
	for _, s := range suffixes {
		if p.ImportPath == s || strings.HasSuffix(p.ImportPath, "/"+s) {
			return true
		}
	}
	return false
}

// directive is one parsed //twcalint:ignore comment.
type directive struct {
	pos    token.Position
	rules  map[string]bool // rule names, or {"*": true}
	reason bool            // a non-empty reason was given
}

// DirectivePrefix is the comment form analyzers honor.
const DirectivePrefix = "//twcalint:ignore"

// parseDirectives scans a file for //twcalint:ignore comments and
// indexes them by the line they end on.
func parseDirectives(fset *token.FileSet, f *ast.File) map[int]*directive {
	out := make(map[int]*directive)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, DirectivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, DirectivePrefix)
			fields := strings.Fields(rest)
			d := &directive{pos: fset.Position(c.Slash), rules: make(map[string]bool)}
			if len(fields) > 0 {
				for _, r := range strings.Split(fields[0], ",") {
					d.rules[r] = true
				}
			}
			d.reason = len(fields) > 1
			out[d.pos.Line] = d
		}
	}
	return out
}

// covers reports whether the directive suppresses findings of rule.
func (d *directive) covers(rule string) bool {
	return d != nil && (d.rules["*"] || d.rules[rule])
}

// Analyze runs the given analyzers over one loaded package, applies
// the //twcalint:ignore directives, and returns the findings sorted by
// position. Directives without a reason are reported under the
// "suppression" rule; that finding cannot itself be suppressed.
func Analyze(p *Pass, suite []*Analyzer) []Finding {
	p.findings = nil
	for _, a := range suite {
		a.Run(p)
	}
	// Index the suppression directives of every file in the package.
	directives := make(map[string]map[int]*directive)
	for _, f := range p.Files {
		pos := p.Fset.Position(f.Pos())
		directives[pos.Filename] = parseDirectives(p.Fset, f)
	}
	for i, fd := range p.findings {
		lines := directives[fd.Pos.Filename]
		for _, line := range []int{fd.Pos.Line, fd.Pos.Line - 1} {
			if d := lines[line]; d.covers(fd.Rule) {
				p.findings[i].Suppressed = true
				break
			}
		}
	}
	// A directive without a reason is a finding of its own, whether or
	// not it suppressed anything: undocumented exceptions are exactly
	// what the suite exists to prevent.
	for _, f := range p.Files {
		pos := p.Fset.Position(f.Pos())
		for _, d := range directives[pos.Filename] {
			if !d.reason {
				p.findings = append(p.findings, Finding{
					Rule:    RuleSuppression,
					Pos:     d.pos,
					Message: "twcalint:ignore without a reason; state why the rule does not apply here",
				})
			}
		}
	}
	sortFindings(p.findings)
	return p.findings
}

// AnalyzeAll builds the interprocedural summary layer over all passes
// and then runs the suite on each, returning the concatenated findings
// in pass order (each pass's findings position-sorted by Analyze).
func AnalyzeAll(passes []*Pass, suite []*Analyzer) []Finding {
	prog := BuildProgram(passes)
	var all []Finding
	for _, p := range passes {
		p.Prog = prog
		all = append(all, Analyze(p, suite)...)
	}
	return all
}

// sortFindings orders findings by file, line, column, rule, message so
// the tool's own output is deterministic.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
