// Package lint implements sslint, a simulator-aware static analysis suite.
//
// SuperSim's value rests on bit-exact reproducibility: identical configs must
// yield identical results. The runtime test suite (golden traces,
// byte-identical observation-only e2e, the verify subsystem) catches
// violations after the fact; this package catches them at lint time, as
// structural properties of the source.
//
// Three analyzers encode the repo's invariants:
//
//   - determinism: sim-core packages must not read the wall clock, draw from
//     the global math/rand source, or let map iteration order feed simulation
//     state (Determinism).
//   - snapshotcomplete: a type's State method (its one bidirectional
//     checkpoint codec) must mention every mutable field of the struct or
//     the field must be marked ephemeral (SnapshotComplete).
//   - shardsafety: state owned by a destination shard must only be written
//     from the owning shard's event context; source-side code goes through
//     the RemotePort seam or follows a remote != nil early return
//     (ShardSafety).
//
// Run-time properties are tested, not linted: every probe method is a no-op
// on a nil receiver (TestProbesNilSafe in internal/telemetry and
// internal/verify), and the flit path does not allocate once warm
// (TestSteadyStateAllocations in internal/core, measured over every
// topology, routing algorithm and router architecture).
//
// The engine is stdlib-only: packages are loaded with go/parser and
// type-checked with go/types using importer.ForCompiler's source importer.
// Every rule is a walk over the typed AST; there is no control-flow or
// dataflow layer.
//
// # Directives
//
// Two comment directives steer the analyzers:
//
//	//sslint:allow <rule>[,<rule>...] — <justification>
//
// suppresses findings of the named rules on the same line, the line below,
// or (when placed in a function's doc comment) anywhere in that function.
// The justification text is mandatory, and an allow that suppresses nothing
// is itself reported, so suppressions cannot rot.
//
//	//sslint:nosnapshot — <justification>
//
// on a struct field (same line or the line above) declares the field
// genuinely ephemeral for the snapshotcomplete analyzer: rebuilt wiring,
// derived caches, scratch state. The justification is mandatory, and a
// nosnapshot on a field the type's State method does mention — or on no
// audited field at all — is reported.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Rule names of the shipped analyzers plus the internal directive checker.
const (
	RuleDeterminism      = "determinism"
	RuleSnapshotComplete = "snapshotcomplete"
	RuleShardSafety      = "shardsafety"

	// RuleDirective reports misuse of the //sslint: directives themselves:
	// unknown rule names, missing justifications, and allows that suppress
	// nothing. It is always active.
	RuleDirective = "directive"
)

// Rules returns the names of the shipped analyzers, sorted.
func Rules() []string {
	return []string{RuleDeterminism, RuleShardSafety, RuleSnapshotComplete}
}

// RuleDoc returns a one-line description of a rule, for `sslint -list-rules`
// and the make lint-rules target.
func RuleDoc(name string) string {
	switch name {
	case RuleDeterminism:
		return "sim-core code must not read the wall clock, draw global randomness, iterate maps into state, or spawn ad-hoc concurrency"
	case RuleSnapshotComplete:
		return "a type with a *snapshot.Codec method must mention every mutable field in it or mark the field //sslint:nosnapshot"
	case RuleShardSafety:
		return "destination-shard state must only be touched by the owning shard; cross-shard writes go through the RemotePort seam"
	case RuleDirective:
		return "//sslint: directives must be well-formed, justified, and in active use"
	}
	return ""
}

// KnownRule reports whether name identifies a shipped analyzer.
func KnownRule(name string) bool {
	for _, r := range Rules() {
		if r == name {
			return true
		}
	}
	return false
}

// NewAnalyzer constructs the analyzer implementing the named rule with its
// default configuration.
func NewAnalyzer(name string) (Analyzer, error) {
	switch name {
	case RuleDeterminism:
		return NewDeterminism(), nil
	case RuleSnapshotComplete:
		return NewSnapshotComplete(), nil
	case RuleShardSafety:
		return NewShardSafety(), nil
	}
	return nil, fmt.Errorf("lint: unknown rule %q (have %v)", name, Rules())
}

// AllAnalyzers returns fresh instances of every shipped analyzer.
func AllAnalyzers() []Analyzer {
	out := make([]Analyzer, 0, len(Rules()))
	for _, r := range Rules() {
		a, err := NewAnalyzer(r)
		if err != nil {
			panic(err)
		}
		out = append(out, a)
	}
	return out
}

// Diagnostic is one finding: a rule violation at a source position.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

// String renders the diagnostic in the canonical file:line:col form sslint
// prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// Analyzer is one lint rule. Check is called once per loaded package.
type Analyzer interface {
	// Name returns the rule identifier reported with each diagnostic.
	Name() string
	// Check analyzes one package and returns its diagnostics.
	Check(p *Package) []Diagnostic
}

// Run checks every package with every analyzer, applies the //sslint:allow
// suppression pass, and returns the surviving diagnostics sorted by
// position. Malformed directives and allows that suppress nothing are
// findings of their own (RuleDirective); with a subset of the analyzers, an
// allow for a rule left out is one of them.
func Run(analyzers []Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, a := range analyzers {
			diags = append(diags, a.Check(p)...)
		}
	}
	// Suppression: an allow directive absorbs matching diagnostics.
	var allows []*allowDirective
	for _, p := range pkgs {
		allows = append(allows, p.directives.allows...)
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, a := range allows {
			if a.matches(d) {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	diags = kept

	for _, p := range pkgs {
		diags = append(diags, p.directives.problems...)
	}
	for _, a := range allows {
		if !a.used {
			diags = append(diags, Diagnostic{
				Rule: RuleDirective,
				Pos:  a.pos,
				Message: fmt.Sprintf(
					"//sslint:allow %s suppresses nothing — remove it", a.rule),
			})
		}
	}
	// A nosnapshot no field claimed is rot — but only the
	// snapshotcomplete analyzer marks them used, so only a run that
	// includes it can tell.
	ranSnapshot := false
	for _, a := range analyzers {
		if a.Name() == RuleSnapshotComplete {
			ranSnapshot = true
		}
	}
	if ranSnapshot {
		for _, p := range pkgs {
			for _, n := range p.directives.nosnapshots {
				if !n.used {
					diags = append(diags, Diagnostic{
						Rule: RuleDirective, Pos: n.pos,
						Message: "//sslint:nosnapshot does not cover any audited struct field — remove it",
					})
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
	return diags
}
